#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `locad` (the system under test) and
the perfbench driver into .bench_build/bin with every Go cache and temporary
directory inside .bench_build, then runs the driver, which prints the
result as the last line of standard output. Without the repository's
sources (go.mod, cmd/locad) the build fails and it exits non-zero without a
result.
"""

import ctypes
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                      ("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                      ("XDG_CACHE_HOME", "home/.cache")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-buildvcs=false",
               GOWORK="off", GOTELEMETRY="off", CGO_ENABLED="0")
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0:
            env["PERFBENCH_COMMIT"] = rev.stdout.strip()
    except OSError:
        pass  # no git: the commit reads "unknown"
    return env


def build(env):
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "locad"), "./cmd/locad"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the checkout root", file=sys.stderr)
        return None
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=800)
        if proc.returncode != 0:
            print("perfbench: build failed:", " ".join(cmd), file=sys.stderr)
            return None
    return bindir


def main():
    if not os.path.isdir(os.path.join(ROOT, "perfbench")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    env = go_env()
    try:
        bindir = build(env)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 1
    if bindir is None:
        return 1
    cmd = [os.path.join(bindir, "perfbench"), "-locad", os.path.join(bindir, "locad"),
           "-out", os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, env=env, preexec_fn=die_with_parent)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def die_with_parent():
    """Have the kernel kill the driver if this wrapper dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def on_term(signum, frame):
    raise SystemExit(1)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_term)
    sys.exit(main())

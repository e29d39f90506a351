#!/bin/sh
# Serving-layer smoke test: start `locad serve` with a persistent artifact
# store on an ephemeral port, drive it with a short cold/warm loadgen phase
# plus a binary batch phase, verify that SIGTERM drains to a clean (exit 0)
# shutdown — then RESTART the server on the same store and assert warm-start
# recovery: the first decode of the restarted process returns labels
# byte-identical to the pre-restart answer without running the engine at all
# (engine_computes stays 0). Everything goes through the locad binary itself
# — no curl or other HTTP client is needed.
#
# Usage: scripts/serve_smoke.sh [phase-duration]
set -eu

duration=${1:-2s}

workdir=$(mktemp -d)
log="$workdir/serve.log"
stats="$workdir/loadgen.json"
store="$workdir/store"
bin="$workdir/locad"
serve_pid=

cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$bin" ./cmd/locad

# start_serve <logfile>: launch serve on an ephemeral port with the shared
# store directory and set $serve_pid/$addr.
start_serve() {
    "$bin" serve -addr 127.0.0.1:0 -store-dir "$store" >"$1" 2>&1 &
    serve_pid=$!
    addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^locad serve: listening on //p' "$1")
        [ -n "$addr" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { echo "serve died early:"; cat "$1"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "serve never reported its address:"; cat "$1"; exit 1; }
}

stop_serve() {
    kill -TERM "$serve_pid"
    rc=0
    wait "$serve_pid" || rc=$?
    serve_pid=
    if [ "$rc" -ne 0 ]; then
        echo "serve exited $rc on SIGTERM:"; cat "$1"; exit 1
    fi
    grep -q 'shutting down' "$1" || { echo "no shutdown log line:"; cat "$1"; exit 1; }
}

start_serve "$log"
echo "serve-smoke: server at $addr (store: $store)"

# Cold + warm + batch load phases; -json embeds a /v1/stats scrape under
# "stats". This also writes every artifact of the workload through to disk.
"$bin" loadgen -addr "$addr" -n 256 -duration "$duration" -batch -json >"$stats"

grep -q '"warm_over_cold_rps"' "$stats" || { echo "loadgen report incomplete"; cat "$stats"; exit 1; }
grep -q '"cache"' "$stats" || { echo "stats scrape missing from report"; cat "$stats"; exit 1; }
grep -q '"items_per_second"' "$stats" || { echo "batch phase missing from report"; cat "$stats"; exit 1; }
echo "serve-smoke: loadgen + batch + stats scrape ok"

# Capture the warm answer, then drain.
probe1="$workdir/probe1.json"
"$bin" loadgen -addr "$addr" -n 256 -probe >"$probe1"
labels1=$(sed -n 's/^  "labels": "\(.*\)",*$/\1/p' "$probe1")
[ -n "$labels1" ] || { echo "probe returned no labels"; cat "$probe1"; exit 1; }

stop_serve "$log"
echo "serve-smoke: graceful shutdown ok"

# Restart on the same store: the first decode must be served from disk —
# identical labels, zero engine computes.
log2="$workdir/serve2.log"
start_serve "$log2"
echo "serve-smoke: restarted at $addr"

probe2="$workdir/probe2.json"
"$bin" loadgen -addr "$addr" -n 256 -probe >"$probe2"
labels2=$(sed -n 's/^  "labels": "\(.*\)",*$/\1/p' "$probe2")

[ "$labels1" = "$labels2" ] || {
    echo "restarted answer differs from pre-restart answer:"
    echo "before: $labels1"; echo "after:  $labels2"; exit 1
}
grep -q '"engine_computes": 0' "$probe2" || {
    echo "restarted server ran the engine on its first decode:"; cat "$probe2"; exit 1
}
echo "serve-smoke: restart recovery ok (identical labels, engine_computes 0)"

stop_serve "$log2"
echo "serve-smoke: restart graceful shutdown ok"

// Command perfbench is the repository benchmark. It runs one named
// workload against code built from this checkout, checks every answer, and
// prints one JSON result line:
//
//	perfbench -locad <binary> -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// perfbench/run.py builds the binaries and is the entry point BENCHMARK.json
// names. An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) prints the per-layer metrics, derived from spans recorded
// around every HTTP call and around in-process replays of each module's
// public functions on the same seeded inputs. See perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// heldOutSeed is kept out of tuning: later performance claims are
// re-checked on it.
const heldOutSeed = 9001

// env is what every workload receives.
type env struct {
	locad   string
	out     string // directory for traces, stores and exact-count records
	seed    int64
	seconds float64
	conns   int
	tr      *tracer // nil on untraced runs
}

// result is one workload run's outcome.
type result struct {
	m         metricSet
	attempted int
	failed    int
	// wrong counts answers that failed their check (a subset of failed).
	wrong int
	// exact holds the counters that must repeat exactly for the same code
	// and seed.
	exact map[string]int64
	// info is extra provenance printed before the result line.
	info map[string]any
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	locad := fs.String("locad", "", "path to the locad binary built from this checkout")
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed wall time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	conns := fs.Int("conns", min(2, runtime.NumCPU()), "client connections (at most nproc)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "output directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *conns < 1 || *conns > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: -conns %d outside 1..nproc (%d)\n", *conns, runtime.NumCPU())
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS %d exceeds nproc %d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *locad == "" && *workload != wlExp {
		fmt.Fprintln(os.Stderr, "perfbench: -locad is required")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{locad: *locad, out: *out, seed: *seed, seconds: *seconds, conns: *conns}
	if *trace == 1 {
		e.tr = newTracer()
	}
	var res *result
	var err error
	switch *workload {
	case wlHotDecode:
		res, err = runHotDecode(e)
	case wlNewGraphs:
		res, err = runNewGraphs(e)
	case wlBatch:
		res, err = runBatch(e)
	case wlExp:
		res, err = runExpTables(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if res.attempted > 0 {
		res.m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	}
	if e.tr == nil {
		// The unscaled client view and the host speed have no bound; an
		// untraced run prints them with the provenance.
		for _, k := range []string{"client.throughput_rps", "client.latency_p50_ms", "client.latency_p99_ms", "host.ref_ms"} {
			res.info[k] = res.m[k]
		}
	}

	code := codeFingerprint(*locad)
	exactOK, err := checkExact(e, *workload, code, res.exact)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := e.tr.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
		res.info["trace_file"] = path
	}

	prov := provenance(*workload, *seed, *conns, code)
	for k, v := range res.info {
		prov[k] = v
	}
	prov["exact"] = res.exact
	prov["exact_repeats"] = exactOK
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)

	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.wrong == 0 && exactOK,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   res.m.output(defs),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// provenance records the host and build a result was measured on.
func provenance(workload string, seed int64, conns int, code string) map[string]any {
	cpuModel := ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpuModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel,
		"commit":        commit,
		"code":          code,
		"conns":         conns,
	}
}

// codeFingerprint identifies the code under test: a digest of the locad
// binary and of this benchmark's own executable. Go builds are
// reproducible, so the same source gives the same fingerprint.
func codeFingerprint(locad string) string {
	h := sha256.New()
	for _, path := range []string{locad, os.Args[0]} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f) // a short read only weakens the fingerprint
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkExact compares this run's exact counters with the first run of the
// same code, workload and seed, recording them when this is the first run.
// Counters present on only one side (traced runs record more) are merged.
func checkExact(e *env, workload, code string, exact map[string]int64) (bool, error) {
	dir := filepath.Join(e.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", code, workload, e.seed))
	first := map[string]int64{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &first); err != nil {
			return false, fmt.Errorf("exact-count record %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return false, err
	}
	ok := true
	merged := false
	for k, v := range exact {
		if want, seen := first[k]; !seen {
			first[k] = v
			merged = true
		} else if want != v {
			fmt.Fprintf(os.Stderr, "perfbench: exact counter %s = %d, first run of this code had %d\n", k, v, want)
			ok = false
		}
	}
	if merged {
		b, _ := json.Marshal(first)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

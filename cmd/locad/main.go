// Command locad is the command-line front end of the localadvice library:
// it generates graphs, runs advice schemas end to end, and regenerates the
// experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	locad exp [E1 ... E12]       run experiments (all by default)
//	locad exp -trace t.jsonl -profile cpu.pprof -summary s.json
//	locad trace -engine scheduler -graph torus -n 256 -o trace.jsonl
//	locad fault -schema color3 -class flip -rate 0.05 -runs 10
//	locad orient  -graph cycle -n 200
//	locad color3  -graph cycle -n 120
//	locad deltacolor -graph torus -n 48
//	locad compress -d 6 -n 120
//	locad graphinfo -graph grid -n 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"localadvice/internal/decompress"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/orient"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "locad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "exp":
		return cmdExp(args[1:])
	case "orient", "color3", "deltacolor":
		return cmdSchema(args[0], args[1:])
	case "compress":
		return cmdCompress(args[1:])
	case "graphinfo":
		return cmdGraphInfo(args[1:])
	case "engine":
		return cmdEngine(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "fault":
		return cmdFault(args[1:])
	case "prove":
		return cmdProve(args[1:])
	case "verifyproof":
		return cmdVerifyProof(args[1:])
	case "dot":
		return cmdDot(args[1:])
	case "gen":
		return cmdGen(args[1:])
	case "load":
		return cmdLoad(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadgen":
		return cmdLoadgen(args[1:])
	case "store":
		return cmdStore(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `locad — local computation with advice (PODC 2024 reproduction)

subcommands:
  exp [E1 ... E12]  run experiments and print their tables (all by default);
                    -trace/-summary observe the run (sequential), -profile
                    writes a CPU profile
  orient            encode+decode an almost-balanced orientation
  color3            encode+decode a 3-coloring with 1 bit per node
  deltacolor        encode+decode a Δ-coloring via the Section 6 pipeline
  compress          compress and decompress a random edge subset
  graphinfo         print a generated graph's parameters
  engine            run the radius-T view-gathering reference protocol on a
                    chosen execution engine (-engine {ball,scheduler,
                    sequential,frugal} -workers <w>) and report rounds/
                    messages/time
  trace             run the engine workload with metrics attached on any
                    -engine and write a JSONL per-round trace (-o <file>,
                    -profile <cpu.pprof>)
  fault             inject faults (-class {flip,truncate,reassign,crash}) into
                    a schema run or an engine run (crash: any -engine) and
                    report the outcome of every repetition (valid / detected
                    / crashed)
  prove             emit a 1-bit locally checkable proof that an LCL is solvable
  verifyproof       run the distributed verifier on a proof string
  dot               render a graph (+ optional schema overlay) as Graphviz DOT
  gen               write a generated graph in the edge-list text format
  load              parse and validate an edge-list file
  serve             run the HTTP/JSON serving layer (-addr -cache-mb
                    -max-inflight -timeout -store-dir); SIGTERM drains
                    gracefully; -store-dir persists artifacts across restarts
  loadgen           drive a running serve with cold/warm /v1/decode traffic
                    and report req/s + p50/p95/p99 per phase (-json for one
                    JSON report with a /v1/stats scrape); -batch adds a binary
                    /v1/batch phase, -probe sends a single decode and reports
                    its labels and the server's counters (restart recovery)
  store {ls,gc,verify}  inspect, garbage-collect or integrity-check a
                    persistent artifact store directory (-dir)

common flags: -graph {%s} -n <size> -seed <s>
              -workers <w>  view-engine / experiment worker count (0 = GOMAXPROCS)
`, strings.Join(harness.GraphFamilies(), ","))
}

// workersFlag registers the shared -workers flag. applyWorkers must be
// called after parsing; it installs the value as the view engine's default
// worker count and returns it for callers that fan out themselves.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel workers for the view engine (0 = GOMAXPROCS)")
}

func applyWorkers(w int) int {
	local.SetDefaultWorkers(w)
	return w
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	workers := workersFlag(fs)
	tracePath := fs.String("trace", "", "write a JSONL engine trace of the (sequential) observed run to this file")
	profilePath := fs.String("profile", "", "write a CPU profile of the experiment run to this file")
	summaryPath := fs.String("summary", "", "write per-experiment engine summaries as JSON to this file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := applyWorkers(*workers)
	ids := fs.Args()
	if len(ids) == 0 {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	exps := make([]harness.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(harness.IDs(), ", "))
		}
		exps = append(exps, e)
	}
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	observe := *tracePath != "" || *summaryPath != ""
	results, err := harness.RunManyObserved(exps, w, observe)
	if err != nil {
		return err
	}
	for _, r := range results {
		r.Table.Render(os.Stdout)
	}
	if *tracePath != "" {
		if err := writeExpTrace(*tracePath, results); err != nil {
			return err
		}
	}
	if *summaryPath != "" {
		if err := writeExpSummaries(*summaryPath, results); err != nil {
			return err
		}
	}
	return nil
}

// writeExpTrace concatenates the per-experiment traces into one JSONL file,
// prefixing each experiment's records with an {"type":"experiment"} marker
// line so consumers can segment the stream.
func writeExpTrace(path string, results []harness.ExperimentResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, r := range results {
		if _, err := fmt.Fprintf(f, "{\"type\":\"experiment\",\"id\":%q}\n", r.ID); err != nil {
			return err
		}
		if err := r.Collector.WriteJSONL(f); err != nil {
			return err
		}
	}
	return f.Close()
}

// writeExpSummaries writes the per-experiment engine summaries as a single
// JSON object keyed by experiment ID, each value one obs.Summary.
func writeExpSummaries(path string, results []harness.ExperimentResult) error {
	out := make(map[string]*obs.Summary, len(results))
	for _, r := range results {
		out[r.ID] = r.Summary
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// graphFlags parses the shared graph-construction flags.
func graphFlags(fs *flag.FlagSet) (kind *string, n *int, seed *int64) {
	kind = fs.String("graph", "cycle", "graph family: "+strings.Join(harness.GraphFamilies(), ", "))
	n = fs.Int("n", 120, "graph size (nodes; grids/tori use the nearest rectangle)")
	seed = fs.Int64("seed", 1, "random seed for generated graphs and IDs")
	return
}

// cmdSchema runs one harness schema adapter end to end on a generated
// graph: encode, decode, verify, then a report of the graph, the schema,
// its advice and the decode rounds.
func cmdSchema(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyWorkers(*workers)
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	advice, _, stats, err := runSchema(name, g)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s decoded and verified\n", g, name)
	fmt.Printf("  bit holders: %d (%d advice bits total), decode rounds: %d\n",
		len(advice.BitHolders()), advice.TotalBits(), stats.Rounds)
	return nil
}

// runSchema encodes g with the named harness.FaultSchemaByName adapter,
// decodes the advice and verifies the output against the schema's problem.
func runSchema(name string, g *graph.Graph) (local.Advice, *lcl.Solution, local.Stats, error) {
	s, ok := harness.FaultSchemaByName(name)
	if !ok {
		return nil, nil, local.Stats{}, fmt.Errorf("unknown schema %q", name)
	}
	advice, err := s.Encode(g)
	if err != nil {
		return nil, nil, local.Stats{}, err
	}
	sol, stats, err := s.Decode(g, advice)
	if err != nil {
		return nil, nil, local.Stats{}, err
	}
	if err := lcl.Verify(s.Problem(g), g, sol); err != nil {
		return nil, nil, local.Stats{}, err
	}
	return advice, sol, stats, nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	n := fs.Int("n", 120, "nodes")
	deg := fs.Int("d", 6, "degree of the random regular graph")
	seed := fs.Int64("seed", 1, "random seed")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyWorkers(*workers)
	rng := rand.New(rand.NewSource(*seed))
	g, err := graph.RandomRegular(*n, *deg, rng)
	if err != nil {
		return err
	}
	x := make(decompress.EdgeSet)
	for e := 0; e < g.M(); e++ {
		if rng.Intn(2) == 0 {
			x[e] = true
		}
	}
	spacing := 20
	if *deg >= 8 {
		spacing = 30
	}
	for _, codec := range []decompress.Codec{decompress.Trivial{}, decompress.Oriented{P: orient.Params{MarkSpacing: spacing, MarkWindow: spacing}}} {
		st, err := decompress.Measure(codec, g, x)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s avg %.2f bits/node, max %d, rounds %d, exact %v (counting bound %.1f)\n",
			st.Codec+":", st.AvgBits, st.MaxBits, st.Rounds, st.Exact, st.LowerBound)
	}
	return nil
}

// engineFlag registers the shared -engine flag of the engine, trace and
// fault subcommands: any name in local.EngineNames, dispatched through
// local.RunDecider.
func engineFlag(fs *flag.FlagSet, usage string) *string {
	return fs.String("engine", "scheduler", usage+": "+strings.Join(local.EngineNames(), ", "))
}

// cmdEngine runs the radius-T view-gathering reference protocol — the
// workload the engine-equivalence tests pin — on a selectable execution
// engine, for message-engine experiments and worker-count sweeps. All
// engines produce identical outputs; the message engines additionally
// report the delivered message count.
func cmdEngine(args []string) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	radius := fs.Int("radius", 2, "view radius T of the reference protocol")
	engine := engineFlag(fs, "execution engine")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := applyWorkers(*workers)
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}

	start := time.Now()
	outputs, stats, err := local.RunDecider(*engine, g, nil, *radius, local.ViewSize, local.RunConfig{Workers: w})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	// The checksum is engine-independent: every engine hands each node the
	// same radius-T view.
	checksum := 0
	for _, out := range outputs {
		checksum += out.(int)
	}
	fmt.Printf("%s engine=%s radius=%d workers=%d\n", g, *engine, *radius, w)
	fmt.Printf("  rounds: %d, messages: %d, output checksum: %d\n", stats.Rounds, stats.Messages, checksum)
	fmt.Printf("  wall time: %s\n", elapsed.Round(time.Microsecond))
	return nil
}

func cmdGraphInfo(args []string) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s diameter=%d connected=%v evenDegrees=%v\n",
		g, g.Diameter(), g.IsConnected(), g.AllDegreesEven())
	prof := g.GrowthProfile(5)
	fmt.Printf("growth |N<=r|: %v\n", prof)
	return nil
}

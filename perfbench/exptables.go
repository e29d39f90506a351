package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"localadvice/internal/harness"
)

// exp-tables: in-process harness.RunMany over E1–E12 with the workers
// `locad exp` uses (GOMAXPROCS), every rendered table byte-compared to the
// goldens. It is the researcher's end-to-end path and the only workload
// that runs eth.AdviceSearch (E2), decompress (E4), edgecolor (E7), the
// frugal engine (E10), decomp (E11) and fault (E9). A request here is one
// regeneration of all twelve tables (one pass); it fails when any table
// differs from its golden.

const goldenDir = "internal/harness/testdata/golden"

// warmIDs are the cheapest experiments; set-up runs them once to fault in
// the code and heap before timing.
var warmIDs = []string{"E10", "E11"}

// loadGoldens reads every experiment's golden table.
func loadGoldens() (map[string]string, error) {
	out := map[string]string{}
	for _, id := range harness.IDs() {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden table: %w", err)
		}
		out[id] = string(b)
	}
	return out, nil
}

// render prints a table exactly as `locad exp` does.
func render(t *harness.Table) string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// expPass is one timed regeneration of every table.
type expPass struct {
	perExp map[string]time.Duration // wall time of each experiment
	cpu    map[string]time.Duration // this process's CPU time over each
	ref    map[string]time.Duration // the calibration around each
	rows   int
	wrong  []string // experiments whose table differs from its golden
	traced bool
	rssMB  []float64 // the process's RSS, sampled while the pass ran
}

// runPass regenerates E1–E12, one experiment at a time through
// harness.RunMany with its default workers (GOMAXPROCS), timing each (inside
// a span when tr is set) between its own calibration points and comparing
// each table to its golden. Running the experiments one by one rather than
// in one RunMany call keeps every timed unit short enough for one host
// speed, and leaves each table's work and output unchanged.
func runPass(goldens map[string]string, tr *tracer, req int64) (expPass, error) {
	p := expPass{perExp: map[string]time.Duration{}, cpu: map[string]time.Duration{},
		ref: map[string]time.Duration{}, traced: tr != nil}
	// Every pass starts from the same heap: the previous pass's garbage is
	// collected and returned to the OS, so the pass's peak RSS is its own.
	debug.FreeOSMemory()
	rss := sampleRSS(os.Getpid())
	for _, ex := range harness.All() {
		var tables []*harness.Table
		var err error
		var cpu time.Duration
		var wall time.Duration
		ref := bracket(func() {
			c := selfCPU()
			wall = tr.do("exp."+ex.ID, 0, req, func(int64) { tables, err = harness.RunMany([]harness.Experiment{ex}, 0) })
			cpu = selfCPU() - c
		})
		if err != nil {
			rss.finish()
			return p, err
		}
		p.perExp[ex.ID], p.cpu[ex.ID], p.ref[ex.ID] = wall, cpu, ref
		p.rows += len(tables[0].Rows)
		if render(tables[0]) != goldens[ex.ID] {
			p.wrong = append(p.wrong, ex.ID)
		}
	}
	p.rssMB = rss.finish()
	return p, nil
}

func runExpTables(e *env) (*result, error) {
	// Set-up takes milliseconds here, so it is repeated more often than on
	// the serving workloads to keep its median steady.
	goldens, setupS, err := repeatSetup(8*setupReps, func() (map[string]string, error) {
		goldens, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		for _, id := range warmIDs {
			r, err := harness.RunOne(id, false)
			if err != nil {
				return nil, err
			}
			if render(r.Table) != goldens[id] {
				return nil, fmt.Errorf("%s differs from its golden table", id)
			}
		}
		return goldens, nil
	}, func(map[string]string) {})
	if err != nil {
		return nil, err
	}

	res := &result{m: metricSet{}, info: map[string]any{}, exact: map[string]int64{}}
	var passes []expPass
	var timed time.Duration
	for i := 0; ; i++ {
		var t *tracer
		if e.tr != nil && i%2 == 1 {
			t = e.tr
		}
		p, err := runPass(goldens, t, int64(i+1))
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		for _, d := range p.perExp {
			timed += d
		}
		res.attempted++
		if len(p.wrong) > 0 {
			res.failed++
		}
		res.wrong += len(p.wrong)
		for _, id := range p.wrong {
			fmt.Fprintf(os.Stderr, "perfbench: %s differs from its golden table\n", id)
		}
		if i == 0 {
			res.exact["rows"] = int64(p.rows)
			res.exact["tables"] = int64(len(p.perExp))
		} else if int64(p.rows) != res.exact["rows"] {
			res.wrong++
		}
		if timed.Seconds() >= e.seconds && (e.tr == nil || i%2 == 1) {
			break
		}
	}

	expEndToEnd(res.m, passes, false)
	res.m["setup_s"] = setupS
	res.info["passes"] = len(passes)
	if e.tr != nil {
		traced := metricSet{}
		expEndToEnd(traced, passes, true)
		if res.m["exp_s"] != 0 {
			res.m["trace.overhead_pct"] = 100 * (traced["exp_s"] - res.m["exp_s"]) / res.m["exp_s"]
		}
		perExp := map[string][]time.Duration{}
		for _, p := range passes {
			if p.traced {
				for id, d := range p.perExp {
					perExp[id] = append(perExp[id], d)
				}
			}
		}
		// Allocation needs each experiment alone in the process: one
		// observed sequential run per experiment.
		for _, id := range harness.IDs() {
			res.m["exp."+id+"_s"] = medianDur(perExp[id], func(d time.Duration) float64 { return d.Seconds() })
			r, err := harness.RunOne(id, true)
			if err != nil {
				return nil, err
			}
			res.m["exp."+id+"_alloc_mb"] = float64(r.Summary.AllocBytes) / (1 << 20)
		}
	}
	return res, nil
}

// expEndToEnd fills the metrics of the passes that match traced the way
// the serving workloads fill theirs, a pass being both a round and its
// only request. Each experiment is scaled by its own calibration and a
// pass's scaled time is their sum, so the calibration errors of the twelve
// experiments average out; its host speed is the median of theirs.
func expEndToEnd(m metricSet, passes []expPass, traced bool) {
	ph := &phaseResult{}
	for _, p := range passes {
		r := roundResult{ok: 1, items: p.rows, traced: p.traced, rssMB: p.rssMB}
		var refs []time.Duration
		for id, d := range p.perExp {
			k := hostScale(p.ref[id])
			r.wall += d
			r.swall += time.Duration(float64(d) * k)
			r.cpu += p.cpu[id]
			r.scpu += time.Duration(float64(p.cpu[id]) * k)
			refs = append(refs, p.ref[id])
		}
		r.lat, r.slat = []time.Duration{r.wall}, []time.Duration{r.swall}
		r.ref = time.Duration(medianDur(refs, func(d time.Duration) float64 { return float64(d) }))
		if r.traced == traced {
			ph.rounds = append(ph.rounds, r)
		}
	}
	ph.metrics(m, traced)
	m["cpu_ms_per_req"] = ph.cpuPerReq()
}

package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// cmdTrace runs the radius-T view-gathering reference protocol on a chosen
// engine with an explicit metrics collector attached, writes the per-round
// JSONL trace, and prints the summary line. It is the observability twin of
// `locad engine`: same workload and flags, but the product is the trace
// rather than the checksum.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	radius := fs.Int("radius", 2, "view radius T of the reference protocol")
	engine := engineFlag(fs, "execution engine")
	out := fs.String("o", "-", "JSONL trace output file ('-' for stdout)")
	profilePath := fs.String("profile", "", "write a CPU profile of the traced run to this file")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := applyWorkers(*workers)
	g, err := makeGraph(*kind, *n, *seed)
	if err != nil {
		return err
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

	c := &obs.Collector{}
	c.Start()
	_, stats, err := local.RunDecider(*engine, g, nil, *radius, local.ViewSize, local.RunConfig{Workers: w, Metrics: c})
	if err != nil {
		return err
	}
	c.Stop()

	dst := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := c.WriteJSONL(dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s engine=%s radius=%d workers=%d rounds=%d messages=%d\n",
		g, *engine, *radius, w, stats.Rounds, stats.Messages)
	fmt.Fprintln(os.Stderr, c.Summary().String())
	return nil
}

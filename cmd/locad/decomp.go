package main

import (
	"flag"
	"fmt"
	"time"

	"localadvice/internal/decomp"
)

// cmdDecomp computes a seeded low-diameter decomposition and reports its
// ball count, radii and cut fraction.
func cmdDecomp(args []string) error {
	fs := flag.NewFlagSet("decomp", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	beta := fs.Float64("beta", 0.2, "decomposition rate β (cut fraction ~ O(β), radii ~ O(log n/β))")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := applyWorkers(*workers)

	g, err := makeGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	start := time.Now()
	d, err := decomp.DecomposeWorkers(g, *beta, *seed, w)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := d.Validate(g); err != nil {
		return err
	}
	fmt.Printf("%s beta=%g seed=%d workers=%d\n", g, *beta, *seed, w)
	fmt.Printf("  balls: %d, max shift: %d, max radius: %d, mean radius: %.2f\n",
		d.Balls(), d.MaxShift, d.MaxRadius(), d.MeanRadius())
	fmt.Printf("  cut edges: %d of %d (fraction %.4f)\n", d.CutEdges, d.Edges, d.CutFraction())
	fmt.Printf("  wall time: %s (validated)\n", elapsed.Round(time.Microsecond))
	return nil
}

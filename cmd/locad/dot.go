package main

import (
	"flag"
	"fmt"
	"os"

	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/viz"
)

// cmdDot renders a graph (optionally with a schema's advice and decoded
// solution) as Graphviz DOT on stdout:
//
//	locad dot -graph cycle -n 40 -schema orient | dot -Tsvg > out.svg
func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	schema := fs.String("schema", "none", "overlay: none, orient, color3")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	opts := viz.Options{Name: "locad"}
	switch *schema {
	case "none":
	case "orient", "color3":
		advice, sol, _, err := runSchema(*schema, g)
		if err != nil {
			return err
		}
		opts.Advice = advice
		opts.Solution = sol
	default:
		return fmt.Errorf("unknown schema overlay %q", *schema)
	}
	var w = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return viz.WriteDOT(w, g, opts)
}

// cmdGen writes a generated graph in the edge-list text format, and cmdLoad
// round-trips a file through the parser to validate it.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	var w = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return graph.WriteEdgeList(w, g)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	in := fs.String("i", "", "input edge-list file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("load needs -i <file>")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	fmt.Printf("%s diameter=%d connected=%v\n", g, g.Diameter(), g.IsConnected())
	return nil
}

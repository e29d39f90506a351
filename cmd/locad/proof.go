package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/growth"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// cmdProve produces the Section 1.2 locally checkable proof that an LCL is
// solvable on the given graph, printing the 1-bit-per-node proof string.
func cmdProve(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	problem := fs.String("problem", "3-coloring", "LCL: 3-coloring, 4-coloring, mis, maximal-matching")
	radius := fs.Int("radius", 40, "cluster radius of the Theorem 4.1 schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	s, err := growthSchema(*problem, *radius)
	if err != nil {
		return err
	}
	proof, err := s.Prove(g)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for v := 0; v < g.N(); v++ {
		sb.WriteString(proof[v].String())
	}
	fmt.Printf("proof that %q is solvable on %v (1 bit per node):\n%s\n", *problem, g, sb.String())
	res, err := s.VerifyProof(g, proof)
	if err != nil {
		return err
	}
	fmt.Printf("verifier: accepted=%v rounds=%d\n", res.Accepted, res.Rounds)
	return nil
}

// cmdVerifyProof checks a proof string (as printed by prove) against a
// regenerated graph.
func cmdVerifyProof(args []string) error {
	fs := flag.NewFlagSet("verifyproof", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	problem := fs.String("problem", "3-coloring", "LCL: 3-coloring, 4-coloring, mis, maximal-matching")
	radius := fs.Int("radius", 40, "cluster radius of the Theorem 4.1 schema")
	proofStr := fs.String("proof", "", "bit string, one character per node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	if len(*proofStr) != g.N() {
		return fmt.Errorf("proof has %d bits for %d nodes", len(*proofStr), g.N())
	}
	advice := make(local.Advice, g.N())
	for v, r := range *proofStr {
		switch r {
		case '0':
			advice[v] = bitstr.New(0)
		case '1':
			advice[v] = bitstr.New(1)
		default:
			return fmt.Errorf("proof character %q at node %d", r, v)
		}
	}
	s, err := growthSchema(*problem, *radius)
	if err != nil {
		return err
	}
	res, err := s.VerifyProof(g, advice)
	if err != nil {
		return err
	}
	if res.Accepted {
		fmt.Printf("ACCEPTED by all %d nodes in %d rounds\n", g.N(), res.Rounds)
		return nil
	}
	fmt.Printf("REJECTED by %d nodes (first few: %v)\n", len(res.Rejectors), head(res.Rejectors, 8))
	os.Exit(1)
	return nil
}

func growthSchema(problem string, radius int) (growth.Schema, error) {
	colorSolver := func(g *graph.Graph) (*lcl.Solution, error) {
		return lcl.ColoringSolution(g, lcl.GreedyColoring(g))
	}
	switch problem {
	case "3-coloring":
		return growth.Schema{Problem: lcl.Coloring{K: 3}, ClusterRadius: radius, Solver: colorSolver}, nil
	case "4-coloring":
		return growth.Schema{Problem: lcl.Coloring{K: 4}, ClusterRadius: radius, Solver: colorSolver}, nil
	case "mis":
		return growth.Schema{Problem: lcl.MIS{}, ClusterRadius: radius}, nil
	case "maximal-matching":
		return growth.Schema{Problem: lcl.MaximalMatching{}, ClusterRadius: radius}, nil
	default:
		return growth.Schema{}, fmt.Errorf("unknown problem %q", problem)
	}
}

func head(xs []int, k int) []int {
	if len(xs) <= k {
		return xs
	}
	return xs[:k]
}

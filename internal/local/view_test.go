package local

import (
	"fmt"
	"math/rand"
	"testing"

	"localadvice/internal/graph"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// checkVisibility checks RunBall's lazy view of one node against the
// visibility rule and against BuildView's materialized ball of the same
// node, and returns the first violation, or "".
func checkVisibility(g *graph.Graph, view *View) string {
	if n := view.stamped(); n != 1 {
		return fmt.Sprintf("a fresh view has %d nodes stamped, want only the center", n)
	}
	if view.Radius > 0 {
		deg := len(view.Neighbors(view.Center))
		if n := view.stamped(); n != 1+deg {
			return fmt.Sprintf("after reading the center's %d neighbors, %d nodes are stamped, want %d", deg, n, 1+deg)
		}
	}
	ball := BuildView(g, nil, view.Center, view.Radius).Materialize()
	nodes := view.Nodes()
	if len(nodes) != ball.G.N() {
		return fmt.Sprintf("%d nodes in the lazy view, %d in BuildView's", len(nodes), ball.G.N())
	}
	in := make(map[int]bool, len(nodes))
	for _, u32 := range nodes {
		u := int(u32)
		in[u] = true
		i := ball.G.NodeByID(view.ID(u))
		if i == -1 || ball.Dist[i] != view.Dist(u) {
			return fmt.Sprintf("node %d at distance %d is not in BuildView's ball at that distance", u, view.Dist(u))
		}
		deg, trueDeg := view.Degree(u), view.TrueDegree(u)
		if len(view.Neighbors(u)) != deg || len(view.IncidentEdges(u)) != deg {
			return fmt.Sprintf("node %d: Degree %d disagrees with its %d neighbors and %d incident edges",
				u, deg, len(view.Neighbors(u)), len(view.IncidentEdges(u)))
		}
		if view.Dist(u) < view.Radius && deg != trueDeg || deg > trueDeg {
			return fmt.Sprintf("node %d at distance %d of %d: Degree %d, TrueDegree %d", u, view.Dist(u), view.Radius, deg, trueDeg)
		}
		for k, w := range view.Neighbors(u) {
			if view.Dist(u) == view.Radius && view.Dist(w) == view.Radius {
				return fmt.Sprintf("edge %d-%d joins two nodes at distance %d", u, w, view.Radius)
			}
			if e := view.IncidentEdges(u)[k]; view.Other(e, u) != w {
				return fmt.Sprintf("node %d: incident edge %d does not lead to neighbor %d", u, e, w)
			}
		}
	}
	for u := 0; u < g.N(); u++ {
		if in[u] {
			continue
		}
		for name, call := range map[string]func(){
			"ID":            func() { view.ID(u) },
			"Dist":          func() { view.Dist(u) },
			"TrueDegree":    func() { view.TrueDegree(u) },
			"Neighbors":     func() { view.Neighbors(u) },
			"IncidentEdges": func() { view.IncidentEdges(u) },
			"Degree":        func() { view.Degree(u) },
		} {
			if !panics(call) {
				return fmt.Sprintf("%s(%d) on a node outside the ball did not panic", name, u)
			}
		}
		if e := g.IncidentEdges(u); len(e) > 0 && !panics(func() { view.Other(e[0], u) }) {
			return fmt.Sprintf("Other(%d, %d) on a node outside the ball did not panic", e[0], u)
		}
	}
	return ""
}

// TestViewVisibility checks the lazy view on every node of a few small
// graphs at radii 0 to 3: it stamps nothing past the center until read,
// its nodes and distances match BuildView's, no edge joins two nodes at
// distance T, Degree equals TrueDegree inside the ball and is at most that
// at distance T, and every method panics on a node outside the ball.
func TestViewVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gnp := graph.RandomGNP(20, 0.2, rng)
	graph.AssignSpreadIDs(gnp, rng)
	for name, g := range map[string]*graph.Graph{
		"path-9":   graph.Path(9),
		"cycle-12": graph.Cycle(12),
		"star-9":   graph.Star(9),
		"grid-5x6": graph.Grid2D(5, 6),
		"gnp-20":   gnp,
	} {
		for radius := 0; radius <= 3; radius++ {
			out, _ := mustRunBall(t, g, nil, radius, func(view *View) any { return checkVisibility(g, view) }, RunConfig{Workers: 2})
			for v, msg := range out {
				if msg != "" {
					t.Fatalf("%s, radius %d, view of node %d: %s", name, radius, v, msg)
				}
			}
		}
	}
}

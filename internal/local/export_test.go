package local

import (
	"testing"

	"localadvice/internal/graph"
)

// SetRunBallHook installs fn as RunBall's output hook (testHookRunBall) for
// the external view-oracle test; nil removes it.
func SetRunBallHook(fn func(g *graph.Graph, advice Advice, v, radius int, algo BallAlgorithm, out any)) {
	testHookRunBall = fn
}

// PropertyGraphs is propertyGraphs for the external test package.
func PropertyGraphs(t *testing.T, seed int64) map[string]*graph.Graph { return propertyGraphs(t, seed) }

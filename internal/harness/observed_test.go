package harness

import (
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// engineExperiment is a minimal experiment that runs a real engine, so an
// observed run has rounds to collect.
func engineExperiment(id string) Experiment {
	return Experiment{ID: id, Title: "test", Run: func() (*Table, error) {
		g := graph.Cycle(32)
		decide := func(view *local.View) any { return view.G.N() }
		if _, _, err := local.RunSequential(g, &local.GatherProtocol{Radius: 2, Decide: decide}, nil, local.RunConfig{}); err != nil {
			return nil, err
		}
		t := &Table{ID: id, Title: "test", Header: []string{"col"}}
		t.AddRow("val")
		return t, nil
	}}
}

// TestRunManyObserved: observe=true attaches a fresh collector per
// experiment, captures a Summary with the engine's rounds, and restores the
// previous process-wide default afterwards.
func TestRunManyObserved(t *testing.T) {
	prev := &obs.Collector{}
	obs.SetDefault(prev)
	defer obs.SetDefault(nil)

	exps := []Experiment{engineExperiment("T1"), engineExperiment("T2")}
	results, err := RunManyObserved(exps, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Table == nil || r.Summary == nil || r.Collector == nil {
			t.Fatalf("%s: incomplete result %+v", r.ID, r)
		}
		if r.Summary.Rounds == 0 {
			t.Errorf("%s: observed summary has no rounds", r.ID)
		}
		if r.Summary.WallNanos <= 0 {
			t.Errorf("%s: summary has no Start/Stop window", r.ID)
		}
	}
	if obs.Default() != prev {
		t.Error("RunManyObserved did not restore the previous default collector")
	}
	if len(prev.Rounds()) != 0 {
		t.Error("observed runs leaked rounds into the previous default collector")
	}

	// Unobserved: tables only, no collectors attached.
	plain, err := RunManyObserved(exps, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plain {
		if r.Table == nil {
			t.Fatalf("%s: missing table", r.ID)
		}
		if r.Summary != nil || r.Collector != nil {
			t.Errorf("%s: unobserved run attached metrics", r.ID)
		}
	}
}

package harness

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun checks that every experiment produces a well-formed
// table and logs its render. It reuses the tables TestGoldenTables already
// generated, so the experiments still run once per `go test`.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Log("\n" + renderExperiment(t, e))
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e3"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("unknown experiment found")
	}
	if len(IDs()) != 12 {
		t.Errorf("IDs = %v, want 12 experiments", IDs())
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID: "X", Title: "test",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== X: test ==", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

package eth

import (
	"math/rand"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

func compileRankTable(t *testing.T) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(401))
	var train []*graph.Graph
	var advices []local.Advice
	for i := 0; i < 20; i++ {
		g := graph.Cycle(10 + i)
		graph.AssignSpreadIDs(g, rng)
		adv := make(local.Advice, g.N())
		for v := range adv {
			adv[v] = bitstr.New(0)
		}
		train = append(train, g)
		advices = append(advices, adv)
	}
	table, err := Compile(rankAlgo, 1, train, advices)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestTableSaveLoadRoundtrip(t *testing.T) {
	table := compileRankTable(t)
	enc, dec := IntCodec()
	var sb strings.Builder
	if err := table.Save(&sb, enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(strings.NewReader(sb.String()), dec)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Radius != table.Radius || len(loaded.Entries) != len(table.Entries) {
		t.Fatalf("shape mismatch: radius %d/%d, entries %d/%d",
			loaded.Radius, table.Radius, len(loaded.Entries), len(table.Entries))
	}
	for k, v := range table.Entries {
		if loaded.Entries[k] != v {
			t.Fatalf("entry %q: %v vs %v", k, loaded.Entries[k], v)
		}
	}
	// The loaded table still runs.
	rng := rand.New(rand.NewSource(402))
	g := graph.Cycle(31)
	graph.AssignSpreadIDs(g, rng)
	adv := make(local.Advice, g.N())
	for v := range adv {
		adv[v] = bitstr.New(0)
	}
	got, _, err := loaded.Run(g, adv)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.RunBall(g, adv, 1, rankAlgo, local.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("node %d: %v vs %v", v, got[v], want[v])
		}
	}
}

func TestLoadTableErrors(t *testing.T) {
	_, dec := IntCodec()
	tests := []struct {
		name string
		in   string
	}{
		{"missing radius", "entry 1 k;\n"},
		{"unknown directive", "radius 1\nfoo\n"},
		{"malformed entry", "radius 1\nentry justone\n"},
		{"bad output", "radius 1\nentry x k;\n"},
		{"duplicate key", "radius 1\nentry 1 k;\nentry 2 k;\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadTable(strings.NewReader(tt.in), dec); err == nil {
				t.Errorf("LoadTable(%q) succeeded", tt.in)
			}
		})
	}
}

func TestSaveRejectsNonIntOutputs(t *testing.T) {
	enc, _ := IntCodec()
	table := &Table{Radius: 1, Entries: map[string]any{"k;": "not-an-int"}}
	var sb strings.Builder
	if err := table.Save(&sb, enc); err == nil {
		t.Error("non-int output saved")
	}
}

package eth

import (
	"bytes"
	"reflect"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

func TestBinaryTableRoundTrip(t *testing.T) {
	table := &Table{Radius: 3, Entries: map[string]any{
		"plain":                      0,
		"key with spaces":            -1,
		"key\nwith\nnewlines":        1 << 40,
		"":                           -(1 << 40),
		string([]byte{0, 255, 7, 9}): 42,
	}}
	enc, dec := IntBinaryCodec()
	var buf bytes.Buffer
	if err := table.SaveBinary(&buf, enc); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTableBinary(bytes.NewReader(buf.Bytes()), dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Radius != table.Radius {
		t.Errorf("radius %d, want %d", got.Radius, table.Radius)
	}
	if len(got.Entries) != len(table.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(table.Entries))
	}
	for k, v := range table.Entries {
		if got.Entries[k] != v {
			t.Errorf("entry %q: %v, want %v", k, got.Entries[k], v)
		}
	}
	// Determinism: encoding the decoded table reproduces the bytes exactly.
	var again bytes.Buffer
	if err := got.SaveBinary(&again, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("binary encoding is not deterministic across a round trip")
	}
}

// TestBinaryTableMatchesCompiled pins the serving path: a table compiled
// from a real graph survives the binary round trip and still decodes the
// same outputs via Run.
func TestBinaryTableMatchesCompiled(t *testing.T) {
	g := graph.Cycle(24)
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v % 2)
	}
	table, err := Compile(misAlgo, 0, []*graph.Graph{g}, []local.Advice{advice})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := IntBinaryCodec()
	var buf bytes.Buffer
	if err := table.SaveBinary(&buf, enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableBinary(bytes.NewReader(buf.Bytes()), dec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := table.Run(g, advice)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Run(g, advice)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("node %d: loaded table decodes %v, compiled decodes %v", v, got[v], want[v])
		}
	}
}

func TestLoadTableBinaryRejectsDamage(t *testing.T) {
	table := &Table{Radius: 1, Entries: map[string]any{"a": 1, "b": 2}}
	enc, dec := IntBinaryCodec()
	var buf bytes.Buffer
	if err := table.SaveBinary(&buf, enc); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for n := 0; n < len(b); n++ {
		if _, err := LoadTableBinary(bytes.NewReader(b[:n]), dec); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := LoadTableBinary(bytes.NewReader(append(append([]byte(nil), b...), 9)), dec); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), b...)
	copy(bad, "NOPE")
	if _, err := LoadTableBinary(bytes.NewReader(bad), dec); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestCompileAcceptsSeparatorOutputs pins that Compile accepts an output
// holding a space and a newline, and that the table survives the binary
// codec and still decodes the graph to that output: length prefixes make
// separators harmless.
func TestCompileAcceptsSeparatorOutputs(t *testing.T) {
	const out = "two words\n"
	g := graph.Cycle(4)
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(0)
	}
	algo := func(view *local.View) any { return out }
	table, err := Compile(algo, 0, []*graph.Graph{g}, []local.Advice{advice})
	if err != nil {
		t.Fatalf("Compile refused a separator-bearing output: %v", err)
	}
	enc := func(v any) ([]byte, error) { return []byte(v.(string)), nil }
	dec := func(b []byte) (any, error) { return string(b), nil }
	var buf bytes.Buffer
	if err := table.SaveBinary(&buf, enc); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	loaded, err := LoadTableBinary(bytes.NewReader(buf.Bytes()), dec)
	if err != nil {
		t.Fatalf("LoadTableBinary: %v", err)
	}
	if !reflect.DeepEqual(loaded.Entries, table.Entries) {
		t.Fatalf("binary round trip changed the entries: %v, want %v", loaded.Entries, table.Entries)
	}
	outputs, _, err := loaded.Run(g, advice)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v, got := range outputs {
		if got != out {
			t.Errorf("node %d: output %q, want %q", v, got, out)
		}
	}
}

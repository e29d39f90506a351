package graph

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestEdgeListRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	graphs := map[string]*Graph{
		"cycle":    Cycle(9),
		"empty":    New(4),
		"single":   New(1),
		"gnp":      RandomGNP(25, 0.2, rng),
		"spreadID": func() *Graph { g := Cycle(12); AssignSpreadIDs(g, rng); return g }(),
	}
	for name, g := range graphs {
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: read: %v\n%s", name, err, sb.String())
		}
		if !Equal(g, back) {
			t.Errorf("%s: roundtrip mismatch", name)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n\nn 3\ne 0 1\n# another\ne 1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tt := range readErrorCases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tt.in))
			if err == nil {
				t.Fatalf("ReadEdgeList(%q) succeeded, want error", tt.in)
			}
			if !errors.Is(err, ErrParse) {
				t.Errorf("ReadEdgeList(%q): %v is not an ErrParse", tt.in, err)
			}
		})
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Cycle(5), Cycle(5)) {
		t.Error("identical graphs unequal")
	}
	if Equal(Cycle(5), Cycle(6)) || Equal(Cycle(4), Path(4)) {
		t.Error("different graphs equal")
	}
	a, b := Cycle(5), Cycle(5)
	if err := b.SetIDs([]int64{5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if Equal(a, b) {
		t.Error("graphs with different IDs equal")
	}
}

// readErrorCases are malformed inputs, one per rejection class, shared by
// TestReadEdgeListErrors, TestReadEdgeListMatchesReference and the fuzz
// seeds.
var readErrorCases = []struct {
	name string
	in   string
}{
	{"missing n", "e 0 1\n"},
	{"no directives", "# nothing\n"},
	{"duplicate n", "n 2\nn 3\n"},
	{"bad count", "n x\n"},
	{"negative count", "n -1\n"},
	{"count over the cap", "n 1048577\n"},
	{"count overflows", "n 99999999999999999999\n"},
	{"n without argument", "n\n"},
	{"n with two arguments", "n 2 3\n"},
	{"edge out of range", "n 2\ne 0 5\n"},
	{"edge out of range, larger first", "n 2\ne 5 0\n"},
	{"negative endpoint", "n 2\ne -1 0\n"},
	{"loop", "n 2\ne 1 1\n"},
	{"duplicate edge", "n 2\ne 0 1\ne 1 0\n"},
	{"duplicate edge, same order", "n 3\ne 0 1\ne 1 2\ne 0 1\n"},
	{"two duplicates", "n 4\ne 2 3\ne 0 1\ne 1 2\ne 1 0\ne 3 2\n"},
	{"duplicate before a bad line", "n 3\ne 1 2\ne 2 1\nq 1\n"},
	{"duplicate before a range error", "n 3\ne 0 2\ne 2 0\ne 0 9\n"},
	{"duplicate before a second n", "n 3\ne 0 2\ne 2 0\nn 3\n"},
	{"duplicate before partial ids", "n 3\nid 0 5\ne 0 2\ne 2 0\n"},
	{"duplicate before bad ids", "n 2\nid 0 0\nid 1 0\ne 0 1\ne 1 0\n"},
	{"bad line before a duplicate", "n 3\ne 1 2\nq\ne 2 1\n"},
	{"unknown directive", "n 2\nq 1\n"},
	{"unknown directive before n", "x\nn 2\n"},
	{"id before n", "id 0 5\n"},
	{"e before n", "e 0 1\nn 2\n"},
	{"partial ids", "n 2\nid 0 7\ne 0 1\n"},
	{"repeated id still partial", "n 3\nid 0 7\nid 0 8\nid 1 9\n"},
	{"bad id node", "n 2\nid 9 7\n"},
	{"negative id node", "n 2\nid -1 7\n"},
	{"id overflows", "n 1\nid 0 9223372036854775808\n"},
	{"id without value", "n 1\nid 0\n"},
	{"zero id", "n 2\nid 0 0\nid 1 1\n"},
	{"negative id", "n 2\nid 0 3\nid 1 -4\n"},
	{"duplicate ids", "n 3\nid 0 3\nid 1 5\nid 2 3\n"},
	{"duplicate ids after a bad one", "n 3\nid 0 3\nid 1 3\nid 2 -3\n"},
	{"duplicate large ids", "n 3\nid 0 900000000000\nid 1 5\nid 2 900000000000\n"},
	{"malformed edge", "n 2\ne 0\n"},
	{"edge with three endpoints", "n 3\ne 0 1 2\n"},
	{"non-numeric endpoint", "n 2\ne 0 x\n"},
	{"underscore in a number", "n 1_0\n"},
	{"hex count", "n 0x10\n"},
	{"sign only", "n 2\ne + 1\n"},
	{"double sign", "n 2\ne --1 0\n"},
	{"endpoint overflows", "n 2\ne 0 9223372036854775808\n"},
	{"no-break space splits a field", "n 2\ne 0\u00a01 1\n"},
	{"invalid utf-8 in a field", "n 2\ne 0 \xff1\n"},
	{"nul byte in a field", "n 2\ne 0 1\x00\n"},
	{"unicode directive", "n 2\n\u00e9 0 1\n"},
}

// TestReadEdgeListMatchesReference is the oracle for the one-pass parser:
// on every input, ReadEdgeList gives what readEdgeListReference, the
// line-by-line parser it replaced, gives. Accepted input must build the same
// graph (Equal, Digest, edge order, and the adjacency and incidence order
// repeated AddEdge gives); rejected input must give the same error text,
// line number included. The inputs are every generator family behind
// harness.BuildGraph at small n with sequential, permuted and spread IDs,
// each text also re-spaced nine ways, every rejection class, and every fuzz
// seed.
func TestReadEdgeListMatchesReference(t *testing.T) {
	inputs := map[string]string{}
	for name, g := range referenceGraphs() {
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatal(err)
		}
		for style, respace := range respacings {
			inputs[name+"/"+style] = respace(sb.String())
		}
	}
	for _, c := range readErrorCases {
		inputs["error/"+c.name] = c.in
		for style, respace := range respacings {
			inputs["error/"+c.name+"/"+style] = respace(c.in)
		}
	}
	for i, seed := range fuzzSeeds {
		inputs[fmt.Sprintf("fuzz seed %d", i)] = seed
	}
	for name, in := range edgeCaseInputs() {
		inputs["edge case/"+name] = in
	}
	for name, in := range inputs {
		checkMatchesReference(t, name, in)
	}
}

// checkMatchesReference fails t unless ReadEdgeList and the reference
// parser agree on in.
func checkMatchesReference(t *testing.T, name, in string) {
	t.Helper()
	want, wantErr := readEdgeListReference(strings.NewReader(in))
	got, gotErr := ReadEdgeList(strings.NewReader(in))
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: error %v, reference error %v\ninput: %.200q", name, gotErr, wantErr, in)
		return
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %q, reference %q\ninput: %.200q", name, gotErr, wantErr, in)
		}
		if !errors.Is(gotErr, ErrParse) {
			t.Errorf("%s: error %v is not an ErrParse", name, gotErr)
		}
		return
	}
	if msg := sameGraph(got, want); msg != "" {
		t.Errorf("%s: %s\ninput: %.200q", name, msg, in)
	}
}

// sameGraph describes the first difference between two graphs, in what
// Equal and Digest compare and in the adjacency and incidence order, or
// returns "".
func sameGraph(got, want *Graph) string {
	if !Equal(got, want) {
		return fmt.Sprintf("graph %v differs from the reference %v", got, want)
	}
	if got.Digest() != want.Digest() {
		return "digest differs from the reference"
	}
	if err := got.Validate(); err != nil {
		return err.Error()
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) ||
			!slices.Equal(got.IncidentEdges(v), want.IncidentEdges(v)) {
			return fmt.Sprintf("node %d: adjacency %v / %v, reference %v / %v", v,
				got.Neighbors(v), got.IncidentEdges(v), want.Neighbors(v), want.IncidentEdges(v))
		}
	}
	return ""
}

// referenceGraphs are the families harness.BuildGraph serves (cycle, path,
// grid, torus, 4-regular, planted 3- and 4-colorable, G(n,p)) at small n,
// plus the empty and one-node graphs, each with sequential, permuted and
// spread IDs.
func referenceGraphs() map[string]*Graph {
	rng := rand.New(rand.NewSource(24))
	regular, err := RandomRegular(20, 4, rng)
	if err != nil {
		panic(err)
	}
	planted3, _ := RandomColorable(30, 3, 0.12, rng)
	planted4, _ := RandomColorable(30, 4, 0.22, rng)
	families := map[string]*Graph{
		"cycle":    Cycle(17),
		"path":     Path(9),
		"grid":     Grid2D(4, 5),
		"torus":    Torus2D(4, 4),
		"regular":  regular,
		"planted3": planted3,
		"planted4": planted4,
		"gnp":      RandomGNP(30, 8.0/30, rng),
		"empty":    New(0),
		"single":   New(1),
		"isolated": New(5),
	}
	out := map[string]*Graph{}
	for name, g := range families {
		out[name+"/sequential"] = g
		permuted := g.Clone()
		AssignPermutedIDs(permuted, rng)
		out[name+"/permuted"] = permuted
		spread := g.Clone()
		AssignSpreadIDs(spread, rng)
		out[name+"/spread"] = spread
	}
	return out
}

// respacings rewrite an edge-list text without changing what it means to
// the reference parser: other separators, line ends, padding, comments and
// blank lines.
var respacings = map[string]func(string) string{
	"as written": func(s string) string { return s },
	"tabs":       func(s string) string { return strings.ReplaceAll(s, " ", "\t") },
	"crlf":       func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") },
	"padded": func(s string) string {
		return eachLine(s, func(l string) string { return " \t " + l + "  \v\f\r" })
	},
	"commented": func(s string) string {
		return eachLine(s, func(l string) string { return "# c " + l + "\n\n  \t\n" + l })
	},
	"no final newline": func(s string) string { return strings.TrimSuffix(s, "\n") },
	"no-break spaces":  func(s string) string { return strings.ReplaceAll(s, " ", "\u00a0") },
	"em spaces":        func(s string) string { return strings.ReplaceAll(s, " ", " \u2003") },
	"next-line marks": func(s string) string {
		return eachLine(s, func(l string) string { return "\u0085" + strings.ReplaceAll(l, " ", "\u3000") + "\u00a0" })
	},
}

// eachLine applies f to every newline-terminated line of s.
func eachLine(s string, f func(string) string) string {
	var sb strings.Builder
	for _, l := range strings.SplitAfter(s, "\n") {
		if body, ok := strings.CutSuffix(l, "\n"); ok {
			sb.WriteString(f(body) + "\n")
		} else if l != "" {
			sb.WriteString(f(l))
		}
	}
	return sb.String()
}

// edgeCaseInputs are accepted and rejected inputs at the edges of the
// number, line and ID rules.
func edgeCaseInputs() map[string]string {
	long := strings.Repeat("x", maxLineBytes-2)
	return map[string]string{
		"signs and leading zeros":   "n +003\ne -0 +0001\ne 0002 00\n",
		"largest id":                "n 2\nid 0 9223372036854775807\nid 1 1\ne 0 1\n",
		"smallest id":               "n 1\nid 0 -9223372036854775808\n",
		"repeated id overwrites":    "n 2\nid 0 5\nid 1 6\nid 0 7\ne 1 0\n",
		"repeated id to a dup":      "n 2\nid 0 5\nid 1 6\nid 0 6\n",
		"ids after edges":           "n 3\ne 2 0\ne 1 2\nid 2 1\nid 1 2\nid 0 3\n",
		"ids of a large range":      "n 3\nid 0 4000000000\nid 1 17\nid 2 3\ne 0 1\n",
		"ids just inside bitset":    "n 2\nid 0 128\nid 1 127\n",
		"ids just past bitset":      "n 2\nid 0 129\nid 1 129\n",
		"two carriage returns":      "n 2\r\r\ne 0 1\r\n",
		"bare carriage returns":     "n 3\re 0 1\re 1 2\n",
		"only a carriage return":    "\r",
		"blank last lines":          "n 1\n\n\n",
		"no newline at all":         "n 0",
		"empty":                     "",
		"comment with a hash field": "n 2\ne 0 1 #c\n",
		"hash inside a field":       "n 2\ne 0 1\n  #e 0 1\n",
		"zero nodes":                "n 0\n",
		"zero nodes with an id":     "n 0\nid 0 1\n",
		"count at the cap":          "n 1048576 \n",
		"longest line":              "n 1\n#" + long + "\n",
		"longest last line":         "n 1\n#" + long,
		"line one byte too long":    "n 1\n#" + long + "x\n",
		"too long after an error":   "n 1\nq\n#" + long + "x",
		"too long after duplicate":  "n 2\ne 0 1\ne 1 0\n#" + long + "x\n",
	}
}

// TestReadEdgeListAllocs pins the parser's allocations at a count that does
// not grow with the input: at most 64 on the permuted cycle-1024 and
// cycle-4096 texts, where the line-by-line parser made 8,239 and 32,857 (a
// string and a field slice per line, an append per edge, an ID map).
func TestReadEdgeListAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode adds allocations of its own; allocation counts are not reproducible")
	}
	const bound = 64
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1024, 4096} {
		g := Cycle(n)
		AssignPermutedIDs(g, rng)
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ReadEdgeList(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("permuted cycle-%d: %.0f allocations per parse", n, allocs)
		if allocs > bound {
			t.Errorf("permuted cycle-%d: %.0f allocations per parse, want at most %d", n, allocs, bound)
		}
	}
}

// TestReadEdgeListBounded checks the bounded entry: a count above the bound
// stops the parse at the n line with a *NodeLimitError that is also an
// ErrParse, whatever follows; a count within it parses as ReadEdgeList does;
// a count above the parser cap keeps the cap's error.
func TestReadEdgeListBounded(t *testing.T) {
	over := "# header\nn 65\ne 0 999\nq\n"
	_, err := ReadEdgeListBounded(strings.NewReader(over), 64)
	var nle *NodeLimitError
	if !errors.As(err, &nle) || *nle != (NodeLimitError{Line: 2, N: 65, Max: 64}) {
		t.Fatalf("ReadEdgeListBounded(%q, 64) = %v, want a node-limit error at line 2", over, err)
	}
	if !errors.Is(err, ErrParse) {
		t.Errorf("%v is not an ErrParse", err)
	}
	const want = "graph: parse error: line 2: node count 65 exceeds the limit 64"
	if err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}
	for _, in := range []string{"n 64\ne 0 63\n", "n 64\ne 0 99\n", "n 3\nid 0 1\n"} {
		g, err := ReadEdgeListBounded(strings.NewReader(in), 64)
		want, wantErr := ReadEdgeList(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && sameGraph(g, want) != "" {
			t.Errorf("ReadEdgeListBounded(%q, 64) = %v, %v; ReadEdgeList gives %v, %v", in, g, err, want, wantErr)
		}
	}
	_, err = ReadEdgeListBounded(strings.NewReader("n 1048577\n"), 64)
	if errors.As(err, &nle) || err == nil || !strings.Contains(err.Error(), "parser cap") {
		t.Errorf("a count above the parser cap gave %v, want the cap's error", err)
	}
}

// TestReadEdgeListReadErrors checks the parser against the reference on
// readers that fail: the lines read before the failure are parsed, and the
// read error is reported unless one of them failed first.
func TestReadEdgeListReadErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, in := range []string{"n 3\ne 0 1\ne 1", "n 3\nq\ne 0", "n 2\ne 0 1\ne 1 0\nn", "n 2\n"} {
		newReader := func() io.Reader { return io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)) }
		_, wantErr := readEdgeListReference(newReader())
		_, gotErr := ReadEdgeList(newReader())
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%q then a read error: %v, reference %v", in, gotErr, wantErr)
		}
	}
	// One byte per read, as a slow stream delivers it.
	in := "n 4\nid 0 4\nid 1 3\nid 2 2\nid 3 1\ne 0 1\r\ne 2 3"
	got, err := ReadEdgeList(iotest.OneByteReader(strings.NewReader(in)))
	want, wantErr := readEdgeListReference(strings.NewReader(in))
	if err != nil || wantErr != nil || sameGraph(got, want) != "" {
		t.Errorf("one byte per read: %v, %v; reference %v, %v", got, err, want, wantErr)
	}
}

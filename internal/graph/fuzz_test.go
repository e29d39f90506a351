package graph

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fuzzSeeds is FuzzReadEdgeList's seed corpus beyond readErrorCases and
// the re-spaced family texts it also adds.
var fuzzSeeds = []string{
	"n 4\ne 0 1\ne 1 2\ne 2 3\n",
	"# comment\n\nn 3\nid 0 7\nid 1 5\nid 2 9\ne 0 1\n",
	"",
	"n",
	"n -1",
	"n 99999999999999999999",
	"e 0 1\nn 2\n",
	"n 2\nn 2\n",
	"n 2\ne 0 0\n",
	"n 2\ne 0 1\ne 0 1\n",
	"n 2\ne 0 5\n",
	"n 2\nid 0 3\n",
	"n 2\nid 0 3\nid 1 3\n",
	"n 2\nid 0 0\nid 1 1\n",
	"n 3\nx 1 2\n",
	"n 1073741824\n",
	"n 3\ne 0 1\r\n\u0085e 1 2 ",
	"n 3\r\ne 2 1\r\ne 1 2\r\n",
	"n +2\nid 00 -0\nid 1 +7\n",
}

// FuzzReadEdgeList pins the parser's contracts: it never panics, whatever
// the input; every rejection is a typed ErrParse; it agrees with
// readEdgeListReference, the line-by-line parser it replaced, on the
// verdict, the error text and the graph (adjacency and incidence order
// included); and any input it accepts round-trips exactly through
// WriteEdgeList. The seed corpus runs as part of the normal test suite;
// `go test -fuzz=FuzzReadEdgeList ./internal/graph` explores further.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	for _, c := range readErrorCases {
		f.Add([]byte(c.in))
	}
	g := Cycle(5)
	if err := g.SetIDs([]int64{9, 3, 12, 4, 1}); err != nil {
		f.Fatal(err)
	}
	var text bytes.Buffer
	if err := WriteEdgeList(&text, g); err != nil {
		f.Fatal(err)
	}
	for _, respace := range respacings {
		f.Add([]byte(respace(text.String())))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		want, wantErr := readEdgeListReference(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("rejection is not an ErrParse: %v", err)
			}
			return
		}
		if msg := sameGraph(g, want); msg != "" {
			t.Fatal(msg)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-parse of written graph failed: %v", err)
		}
		if !Equal(g, g2) {
			t.Fatalf("round trip changed the graph: %v vs %v", g, g2)
		}
	})
}

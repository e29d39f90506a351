package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestDigestMatchesEqual(t *testing.T) {
	a := Cycle(40)
	b := Cycle(40)
	if a.Digest() != b.Digest() {
		t.Fatalf("identical cycles digest differently")
	}
	if !Equal(a, b) {
		t.Fatalf("identical cycles not Equal")
	}

	// Equal digests imply Equal, not the converse: the digest hashes the
	// edge list in insertion order, so the same edges listed in another
	// order give another digest, while reversed endpoints do not.
	parse := func(text string) *Graph {
		g, err := ReadEdgeList(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fwd := parse("n 3\ne 0 1\ne 1 2\n")
	for _, c := range []struct {
		name, text string
		sameDigest bool
	}{
		{"edges in another order", "n 3\ne 1 2\ne 0 1\n", false},
		{"reversed endpoints", "n 3\ne 1 0\ne 2 1\n", true},
	} {
		g := parse(c.text)
		if !Equal(fwd, g) {
			t.Errorf("%s: not Equal to the path 0-1-2", c.name)
		}
		if same := g.Digest() == fwd.Digest(); same != c.sameDigest {
			t.Errorf("%s: equal digests = %v, want %v", c.name, same, c.sameDigest)
		}
	}
}

func TestDigestDistinguishes(t *testing.T) {
	base := Cycle(16)
	cases := map[string]*Graph{
		"node count": Cycle(17),
		"edge set":   Path(16),
	}
	remapped := Cycle(16)
	AssignPermutedIDs(remapped, rand.New(rand.NewSource(7)))
	cases["identifiers"] = remapped
	extra := Cycle(16)
	extra.MustAddEdge(0, 8)
	cases["extra edge"] = extra
	for name, g := range cases {
		if g.Digest() == base.Digest() {
			t.Errorf("%s: digest collision with the base cycle", name)
		}
	}
}

func TestDigestStableUnderSnapshot(t *testing.T) {
	g := Grid2D(5, 5)
	before := g.Digest()
	g.Snapshot() // caching the CSR must not change the identity
	if after := g.Digest(); after != before {
		t.Fatalf("digest changed after Snapshot: %s vs %s", before, after)
	}
}

func TestDigestRoundTripsThroughIO(t *testing.T) {
	g := Torus2D(4, 5)
	AssignPermutedIDs(g, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Digest() != g2.Digest() {
		t.Fatalf("digest not preserved by edge-list round trip")
	}
}

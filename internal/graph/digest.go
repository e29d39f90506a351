package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns a hex SHA-256 fingerprint of the graph's full identity:
// node count, per-index identifiers, and the edge list in insertion order
// (each edge as stored, lower endpoint first). Equal digests imply that
// Equal reports the graphs identical, so the digest is a safe cache key for
// any artifact derived from the graph (snapshots, encoded advice, compiled
// decoder tables). The converse does not hold: the same edges inserted in
// another order give another digest, and so separate cache entries — extra
// computes, never a wrong answer. Stored keys embed the digest, so its
// bytes must not change. The serving layer's cache-key contract in
// DESIGN.md builds on this guarantee.
func (g *Graph) Digest() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(g.n))
	for _, id := range g.ids {
		writeInt(id)
	}
	writeInt(int64(len(g.edges)))
	for _, e := range g.edges {
		writeInt(int64(e.U))
		writeInt(int64(e.V))
	}
	return hex.EncodeToString(h.Sum(nil))
}

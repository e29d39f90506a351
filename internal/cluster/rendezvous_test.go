package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPropertyOwnerDeterministic pins the hash function across processes:
// the owner of a key is a pure function of (key, shard names), so these
// golden assignments must never change — a silent hash change would strand
// every artifact on the wrong shard after a fleet restart.
func TestPropertyOwnerDeterministic(t *testing.T) {
	shards := []string{"shard0", "shard1", "shard2", "shard3"}
	golden := map[string]string{
		"graph:cycle:64:1": "shard0",
		"graph:torus:36:2": "shard0",
		"graph:text:4a5e1e4baab89f3a32518a88c31bd87b618f76673e8cc77f7aeadf8cd9ded4d5": "shard0",
		"advice:deadbeef:mis@radius=0": "shard2",
	}
	for key, want := range golden {
		if got := Owner(key, shards); got != want {
			t.Errorf("Owner(%q) = %q, want golden %q (rendezvous hash changed!)", key, got, want)
		}
	}
	// Owner must agree with Rank's head and be order-independent.
	reversed := []string{"shard3", "shard2", "shard1", "shard0"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("graph:cycle:%d:%d", 16+i, i)
		if got, want := Owner(key, shards), Rank(key, shards)[0]; got != want {
			t.Fatalf("Owner(%q) = %q but Rank head is %q", key, got, want)
		}
		if got, want := Owner(key, reversed), Owner(key, shards); got != want {
			t.Fatalf("Owner(%q) depends on shard order: %q vs %q", key, got, want)
		}
	}
}

// referenceOwner is an independent reimplementation of the
// highest-random-weight rule straight from its definition — the reference
// model the routing implementation is measured against.
func referenceOwner(key string, shards []string) string {
	best, bestScore := "", uint64(0)
	for _, s := range shards {
		h := fnv.New64a()
		h.Write([]byte(s))
		h.Write([]byte{0})
		h.Write([]byte(key))
		sc := h.Sum64()
		if best == "" || sc > bestScore || (sc == bestScore && s < best) {
			best, bestScore = s, sc
		}
	}
	return best
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("graph:cycle:%d:%d", 16+i%977, i)
	}
	return keys
}

// TestPropertyOwnerMatchesReference checks the implementation against the
// reference model key by key, and that ownership is roughly balanced (each
// of 4 shards owns 15-35%% of a large keyspace).
func TestPropertyOwnerMatchesReference(t *testing.T) {
	shards := []string{"shard0", "shard1", "shard2", "shard3"}
	keys := testKeys(4000)
	counts := map[string]int{}
	for _, k := range keys {
		got := Owner(k, shards)
		if want := referenceOwner(k, shards); got != want {
			t.Fatalf("Owner(%q) = %q, reference model says %q", k, got, want)
		}
		counts[got]++
	}
	for _, s := range shards {
		frac := float64(counts[s]) / float64(len(keys))
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("shard %s owns %.1f%% of keys; want roughly balanced (15-35%%)", s, 100*frac)
		}
	}
}

// TestPropertyJoinMovesOneNth pins the property that makes rendezvous
// hashing the right fit for the cache contract: when a shard joins, the
// only keys that change owner are the ones the new shard wins — an expected
// 1/(N+1) of the keyspace — and every one of them moves TO the new shard.
func TestPropertyJoinMovesOneNth(t *testing.T) {
	shards := []string{"shard0", "shard1", "shard2", "shard3", "shard4"}
	grown := append(append([]string{}, shards...), "shard5")
	keys := testKeys(6000)

	moved := 0
	for _, k := range keys {
		before, after := Owner(k, shards), Owner(k, grown)
		if before == after {
			continue
		}
		if after != "shard5" {
			t.Fatalf("join moved %q from %s to %s, not to the new shard", k, before, after)
		}
		moved++
	}
	frac := float64(moved) / float64(len(keys))
	expect := 1.0 / float64(len(grown))
	if frac < expect/2 || frac > expect*2 {
		t.Errorf("join moved %.1f%% of keys, want about %.1f%% (1/N)", 100*frac, 100*expect)
	}
}

// TestPropertyLeaveMovesOnlyOrphans: removing a shard reassigns exactly its
// own keys; every key owned by a surviving shard keeps its owner.
func TestPropertyLeaveMovesOnlyOrphans(t *testing.T) {
	shards := []string{"shard0", "shard1", "shard2", "shard3", "shard4"}
	shrunk := []string{"shard0", "shard1", "shard3", "shard4"} // shard2 leaves
	keys := testKeys(6000)

	orphans := 0
	for _, k := range keys {
		before, after := Owner(k, shards), Owner(k, shrunk)
		if before == "shard2" {
			orphans++
			if after == "shard2" {
				t.Fatalf("key %q still owned by the removed shard", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("leave moved %q from surviving %s to %s", k, before, after)
		}
	}
	frac := float64(orphans) / float64(len(keys))
	expect := 1.0 / float64(len(shards))
	if frac < expect/2 || frac > expect*2 {
		t.Errorf("removed shard owned %.1f%% of keys, want about %.1f%%", 100*frac, 100*expect)
	}
}

// TestPropertyReplicaSets: replica sets never contain the owner, hold no
// duplicates, and have exactly min(k, N-1) members drawn from the fleet.
func TestPropertyReplicaSets(t *testing.T) {
	shards := []string{"shard0", "shard1", "shard2", "shard3", "shard4"}
	for _, k := range []int{0, 1, 2, 4, 7} {
		for _, key := range testKeys(500) {
			owner := Owner(key, shards)
			reps := Replicas(key, shards, k)
			wantLen := k
			if wantLen > len(shards)-1 {
				wantLen = len(shards) - 1
			}
			if wantLen < 0 {
				wantLen = 0
			}
			if len(reps) != wantLen {
				t.Fatalf("Replicas(%q, k=%d) has %d members, want %d", key, k, len(reps), wantLen)
			}
			seen := map[string]bool{owner: true}
			for _, r := range reps {
				if r == owner {
					t.Fatalf("Replicas(%q, k=%d) contains the owner %s", key, k, owner)
				}
				if seen[r] {
					t.Fatalf("Replicas(%q, k=%d) contains %s twice", key, k, r)
				}
				seen[r] = true
			}
		}
	}
}

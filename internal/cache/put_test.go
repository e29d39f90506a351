package cache

import (
	"fmt"
	"testing"
)

// TestPutInsertsAndReplaces: the direct-insertion path makes values
// resident without a compute, replaces existing entries in place, and
// counts every call.
func TestPutInsertsAndReplaces(t *testing.T) {
	c := New(100)
	if !c.Put("k", "v1", 10) {
		t.Fatal("Put rejected a fitting value")
	}
	v, hit, err := c.Do("k", func() (any, int64, error) {
		t.Fatal("Put value recomputed")
		return nil, 0, nil
	})
	if err != nil || !hit || v.(string) != "v1" {
		t.Fatalf("after Put: v=%v hit=%v err=%v", v, hit, err)
	}

	if !c.Put("k", "v2", 20) {
		t.Fatal("replacing Put rejected")
	}
	v, _, _ = c.Do("k", constant(nil, 0))
	if v.(string) != "v2" {
		t.Fatalf("replacement not visible: %v", v)
	}
	st := c.Stats()
	if st.Puts != 2 {
		t.Errorf("puts = %d, want 2", st.Puts)
	}
	if st.Entries != 1 || st.Bytes != 20 {
		t.Errorf("after replace: entries=%d bytes=%d, want 1/20", st.Entries, st.Bytes)
	}
}

// TestPutRespectsBound: oversized values are rejected (counted), a full
// cache evicts LRU entries to make room, and a disabled cache stores
// nothing.
func TestPutRespectsBound(t *testing.T) {
	c := New(100)
	if c.Put("huge", "v", 101) {
		t.Error("oversized Put accepted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Errorf("oversized Put: rejected=%d entries=%d", st.Rejected, st.Entries)
	}

	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 10)
	}
	if !c.Put("big", "v", 50) {
		t.Fatal("Put into a full cache rejected instead of evicting")
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Errorf("size bound violated: %d bytes", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions counted after overfilling")
	}
	if _, hit, _ := c.Do("big", constant(nil, 0)); !hit {
		t.Errorf("newest Put evicted instead of the LRU tail")
	}

	off := New(0)
	if off.Put("k", "v", 1) {
		t.Error("disabled cache accepted a Put")
	}
}

package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func constant(v any, size int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, size, nil }
}

func TestDoHitMissAndLRUOrder(t *testing.T) {
	c := New(100)
	for i := 0; i < 3; i++ {
		v, hit, err := c.Do(fmt.Sprintf("k%d", i), constant(i, 10))
		if err != nil || hit || v.(int) != i {
			t.Fatalf("first Do k%d: v=%v hit=%v err=%v", i, v, hit, err)
		}
	}
	v, hit, err := c.Do("k0", func() (any, int64, error) {
		t.Fatal("resident key recomputed")
		return nil, 0, nil
	})
	if err != nil || !hit || v.(int) != 0 {
		t.Fatalf("hit on k0: v=%v hit=%v err=%v", v, hit, err)
	}
	want := []string{"k0", "k2", "k1"} // k0 promoted to MRU by the hit
	got := c.Keys()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
}

func TestEvictionRespectsBoundAndOrder(t *testing.T) {
	c := New(30)
	for i := 0; i < 3; i++ {
		c.Do(fmt.Sprintf("k%d", i), constant(i, 10))
	}
	// Touch k0 so k1 is the LRU, then insert past the bound.
	c.Do("k0", constant(0, 10))
	c.Do("k3", constant(3, 10))
	st := c.Stats()
	if st.Bytes > 30 {
		t.Fatalf("bytes %d exceed the bound", st.Bytes)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, hit, _ := c.Do("k1", constant(1, 10)); hit {
		t.Fatalf("LRU entry k1 survived eviction")
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New(10)
	v, hit, err := c.Do("big", constant("x", 11))
	if err != nil || hit || v.(string) != "x" {
		t.Fatalf("oversized compute: v=%v hit=%v err=%v", v, hit, err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("oversized value stored: %+v", st)
	}
}

func TestDisabledCacheStillComputes(t *testing.T) {
	c := New(0)
	var n atomic.Int64
	compute := func() (any, int64, error) { return n.Add(1), 1, nil }
	c.Do("k", compute)
	_, hit, _ := c.Do("k", compute)
	if hit || n.Load() != 2 {
		t.Fatalf("disabled cache served a hit (computes=%d)", n.Load())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(100)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do("k", constant(7, 1))
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestFlushDropsEntriesAndStaleInflight(t *testing.T) {
	c := New(100)
	c.Do("k", constant(1, 1))
	gate := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do("slow", func() (any, int64, error) {
			close(entered)
			<-gate
			return 42, 1, nil
		})
		if err != nil || v.(int) != 42 {
			t.Errorf("slow compute: v=%v err=%v", v, err)
		}
	}()
	<-entered
	c.Flush()
	close(gate)
	<-done
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("flushed cache holds %d entries (stale in-flight value resurrected?)", st.Entries)
	}
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	if st.Rejected != 1 {
		t.Fatalf("stale in-flight insert not counted as rejected: %+v", st)
	}
}

func TestSingleflightComputesOnce(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("shared", func() (any, int64, error) {
				computes.Add(1)
				<-release
				return "value", 5, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let the herd pile up behind the first caller's compute.
	for c.Stats().Dedups < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers", n, callers)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Computes != 1 || st.Dedups != callers-1 {
		t.Fatalf("stats %+v, want 1 compute and %d dedups", st, callers-1)
	}
}

// TestSingleflightComputePanic: a compute that panics releases its waiters
// with ErrComputePanicked, the panic reaches the caller that ran it, and
// the key is free: the next Do computes again.
func TestSingleflightComputePanic(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (any, int64, error) {
			<-release
			panic("compute failed")
		})
	}()
	for c.Stats().Computes < 1 {
		runtime.Gosched()
	}
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (any, int64, error) { return "unused", 1, nil })
		waiter <- err
	}()
	for c.Stats().Dedups < 1 {
		runtime.Gosched()
	}
	close(release)
	if p := <-recovered; p != "compute failed" {
		t.Fatalf("the computing caller recovered %v, want the compute's panic", p)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrComputePanicked) {
			t.Fatalf("waiter err = %v, want ErrComputePanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the compute panicked")
	}
	v, hit, err := c.Do("k", func() (any, int64, error) { return "value", 5, nil })
	if v != "value" || hit || err != nil {
		t.Fatalf("Do after the panic = (%v, %v, %v), want a fresh compute", v, hit, err)
	}
	if st := c.Stats(); st.Computes != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 computes and 1 entry", st)
	}
}

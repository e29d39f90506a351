// Package cache is the artifact cache of the serving layer: a size-bounded,
// generation-stamped LRU with singleflight computation.
//
// The serving workload of ROADMAP.md is encode-once/decode-many: a graph is
// parsed once, its advice is encoded once, a decoder table is compiled once,
// and the resulting artifacts are then reused by many requests. The cache
// holds exactly those derived artifacts, keyed by strings built from the
// graph digest plus the schema name and parameters (the cache-key contract
// is documented in DESIGN.md). Three properties matter for serving:
//
//   - Size bound: the total charged size of resident entries never exceeds
//     MaxBytes; inserting past the bound evicts least-recently-used entries
//     first. Entries larger than the whole bound are computed but never
//     stored.
//   - Singleflight: concurrent Do calls for the same absent key run the
//     compute function once; the other callers block and share the result.
//     A thundering herd of identical requests costs one computation.
//   - Generations: Flush drops every entry and bumps the generation stamp.
//     A computation that was in flight across a Flush is handed to its
//     waiters but not inserted, so a flush cannot be undone by a stale
//     in-flight value.
//
// All methods are safe for concurrent use.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// ErrComputePanicked is what Do returns to the callers that waited on a
// compute which panicked. The caller that ran the compute gets the panic
// itself.
var ErrComputePanicked = errors.New("cache: compute panicked")

// Stats is a point-in-time snapshot of the cache counters. Hits, Dedups,
// Misses and Computes partition Do outcomes: every Do is a hit, a dedup
// (waited on another caller's compute), or a miss that ran Computes once.
type Stats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Dedups     uint64 `json:"dedups"`
	Computes   uint64 `json:"computes"`
	Evictions  uint64 `json:"evictions"`
	Rejected   uint64 `json:"rejected"` // computed values too large (or too late) to store
	Puts       uint64 `json:"puts"`     // direct insertions (Put)
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxBytes   int64  `json:"max_bytes"`
	Generation uint64 `json:"generation"`
}

// HitRate returns hits+dedups over all Do calls (0 when idle).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Dedups + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups) / float64(total)
}

// Cache is the LRU. Construct with New; the zero value is not usable.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	gen      uint64
	bytes    int64
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*call

	hits, misses, dedups, computes, evictions, rejected, puts uint64
}

type entry struct {
	key   string
	value any
	size  int64
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done  chan struct{}
	value any
	err   error
}

// New returns a cache bounded to maxBytes of charged entry sizes. A bound
// <= 0 disables storage entirely: every Do computes (with singleflight
// deduplication still active) and nothing is retained.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Do returns the cached value for key, or runs compute to produce it. The
// compute function returns the value together with its charged size in
// bytes. hit reports whether the caller was served without running compute
// itself (a resident entry or another caller's in-flight computation).
// Errors are never cached: every waiter of a failed compute receives the
// error, and the next Do for the key computes again. A panicking compute is
// not cached either: its waiters receive ErrComputePanicked, the key is
// free for the next Do, and the panic continues in the caller that ran it.
func (c *Cache) Do(key string, compute func() (value any, size int64, err error)) (value any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).value
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.dedups++
		c.mu.Unlock()
		<-cl.done
		return cl.value, true, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.misses++
	c.computes++
	startGen := c.gen
	c.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			cl.err = ErrComputePanicked
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			close(cl.done)
		}
	}()
	v, size, err := compute()
	completed = true
	cl.value, cl.err = v, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		if c.gen != startGen || size > c.maxBytes || c.maxBytes <= 0 {
			// Flushed mid-compute, oversized, or storage disabled: serve the
			// value to every waiter but do not retain it.
			c.rejected++
		} else {
			el := c.ll.PushFront(&entry{key: key, value: v, size: size})
			c.byKey[key] = el
			c.bytes += size
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	close(cl.done)
	return v, false, err
}

// Put inserts (or replaces) a value directly, bypassing singleflight: the
// value was produced elsewhere and only needs to become resident
// (perfbench's hot-decode replay fills its LRU this way). Respects the size
// bound exactly like Do's insertion path (oversized values and disabled
// storage are rejected, LRU entries are evicted to make room) and reports
// whether the value is now resident. A racing in-flight Do computation for
// the same key is unaffected: its waiters get the computed value, and its
// insertion simply replaces this one.
func (c *Cache) Put(key string, value any, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if size > c.maxBytes || c.maxBytes <= 0 {
		c.rejected++
		return false
	}
	if el, ok := c.byKey[key]; ok {
		c.bytes -= el.Value.(*entry).size
		c.ll.Remove(el)
		delete(c.byKey, key)
	}
	el := c.ll.PushFront(&entry{key: key, value: value, size: size})
	c.byKey[key] = el
	c.bytes += size
	c.evictLocked()
	return true
}

// evictLocked drops least-recently-used entries until the size bound holds.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.byKey, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Flush drops every resident entry and bumps the generation stamp, so
// computations in flight across the flush cannot reinsert stale values.
func (c *Cache) Flush() {
	c.mu.Lock()
	c.gen++
	c.ll.Init()
	c.byKey = make(map[string]*list.Element)
	c.bytes = 0
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Dedups: c.dedups, Computes: c.computes,
		Evictions: c.evictions, Rejected: c.rejected, Puts: c.puts,
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.maxBytes, Generation: c.gen,
	}
}

// Keys returns the resident keys from most to least recently used; the
// property tests compare this order against a reference model.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

package obs

import (
	"sync/atomic"
	"time"
)

// StoreMetrics accumulates the persistent artifact store's counters: disk
// hits and misses, record loads and writes with their wall time, and I/O
// errors. All methods are safe for concurrent use and no-ops on a nil
// receiver, mirroring the zero-cost-when-disabled contract of the engine
// metrics: a server without a -store-dir passes nil and pays nothing.
type StoreMetrics struct {
	hits         atomic.Uint64
	misses       atomic.Uint64
	puts         atomic.Uint64
	errors       atomic.Uint64
	loadNanos    atomic.Int64
	putNanos     atomic.Int64
	bytesLoaded  atomic.Int64
	bytesWritten atomic.Int64
}

// ObserveLoad records one Get: whether a record was found, how many payload
// bytes it carried, and how long the disk read + decode took.
func (m *StoreMetrics) ObserveLoad(d time.Duration, bytes int64, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.hits.Add(1)
		m.bytesLoaded.Add(bytes)
	} else {
		m.misses.Add(1)
	}
	m.loadNanos.Add(d.Nanoseconds())
}

// ObservePut records one Put: payload bytes written and wall time.
func (m *StoreMetrics) ObservePut(d time.Duration, bytes int64) {
	if m == nil {
		return
	}
	m.puts.Add(1)
	m.bytesWritten.Add(bytes)
	m.putNanos.Add(d.Nanoseconds())
}

// ObserveError records a store I/O or corruption error (the store treats
// both as misses, so serving continues; the counter makes them visible).
func (m *StoreMetrics) ObserveError() {
	if m == nil {
		return
	}
	m.errors.Add(1)
}

// StoreSnapshot is the JSON form of the store counters, surfaced by the
// server's /v1/stats under the "store" key.
type StoreSnapshot struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Puts         uint64 `json:"puts"`
	Errors       uint64 `json:"errors"`
	LoadNanos    int64  `json:"load_nanos"`
	PutNanos     int64  `json:"put_nanos"`
	BytesLoaded  int64  `json:"bytes_loaded"`
	BytesWritten int64  `json:"bytes_written"`
}

// Snapshot returns the current counters (zero-valued on a nil receiver).
func (m *StoreMetrics) Snapshot() StoreSnapshot {
	if m == nil {
		return StoreSnapshot{}
	}
	return StoreSnapshot{
		Hits:         m.hits.Load(),
		Misses:       m.misses.Load(),
		Puts:         m.puts.Load(),
		Errors:       m.errors.Load(),
		LoadNanos:    m.loadNanos.Load(),
		PutNanos:     m.putNanos.Load(),
		BytesLoaded:  m.bytesLoaded.Load(),
		BytesWritten: m.bytesWritten.Load(),
	}
}

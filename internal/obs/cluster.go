package obs

import (
	"sync"
	"sync/atomic"
)

// ClusterMetrics accumulates the router role's operational counters: how
// requests were routed across the shard fleet, how often forwarding failed,
// and what the hot-artifact replicator did. All methods are safe for
// concurrent use; the zero value is ready.
//
// The counters partition the router's routed traffic: every routed request
// is a forward to the owner, a replica hit (a hot replicated key served by
// a non-owner), a failover (owner down, served by the next healthy shard),
// or a local fallback (no healthy shard at all, computed in-process).
type ClusterMetrics struct {
	forwards      atomic.Uint64
	forwardErrors atomic.Uint64
	replicaHits   atomic.Uint64
	failovers     atomic.Uint64
	localFallback atomic.Uint64

	replications      atomic.Uint64
	replicationErrors atomic.Uint64
	flushFanouts      atomic.Uint64

	mu     sync.Mutex
	routed map[string]uint64 // shard name -> requests routed there as owner
}

// Forward records one request forwarded to its owning shard.
func (m *ClusterMetrics) Forward() { m.forwards.Add(1) }

// ForwardError records one failed forward attempt (transport-level).
func (m *ClusterMetrics) ForwardError() { m.forwardErrors.Add(1) }

// ReplicaHit records a hot key served by a non-owner replica.
func (m *ClusterMetrics) ReplicaHit() { m.replicaHits.Add(1) }

// Failover records a request rerouted past a dead owner to another shard.
func (m *ClusterMetrics) Failover() { m.failovers.Add(1) }

// LocalFallback records a request computed in-process because no shard was
// reachable.
func (m *ClusterMetrics) LocalFallback() { m.localFallback.Add(1) }

// Replication records one completed hot-artifact replication (one key
// pushed to its replica set).
func (m *ClusterMetrics) Replication() { m.replications.Add(1) }

// ReplicationError records a failed replication attempt.
func (m *ClusterMetrics) ReplicationError() { m.replicationErrors.Add(1) }

// FlushFanout records one cluster-wide cache flush fan-out.
func (m *ClusterMetrics) FlushFanout() { m.flushFanouts.Add(1) }

// RouteTo records that a request's routing key ranked shard as its owner
// (the per-shard ownership count surfaced at /v1/stats).
func (m *ClusterMetrics) RouteTo(shard string) {
	m.mu.Lock()
	if m.routed == nil {
		m.routed = make(map[string]uint64)
	}
	m.routed[shard]++
	m.mu.Unlock()
}

// ClusterSnapshot is the JSON form of the router counters, surfaced at the
// router's /v1/stats.
type ClusterSnapshot struct {
	Forwards          uint64            `json:"forwards"`
	ForwardErrors     uint64            `json:"forward_errors"`
	ReplicaHits       uint64            `json:"replica_hits"`
	Failovers         uint64            `json:"failovers"`
	LocalFallbacks    uint64            `json:"local_fallbacks"`
	Replications      uint64            `json:"replications"`
	ReplicationErrors uint64            `json:"replication_errors"`
	FlushFanouts      uint64            `json:"flush_fanouts"`
	RoutedByShard     map[string]uint64 `json:"routed_by_shard"`
}

// Snapshot returns the current counters.
func (m *ClusterMetrics) Snapshot() ClusterSnapshot {
	s := ClusterSnapshot{
		Forwards:          m.forwards.Load(),
		ForwardErrors:     m.forwardErrors.Load(),
		ReplicaHits:       m.replicaHits.Load(),
		Failovers:         m.failovers.Load(),
		LocalFallbacks:    m.localFallback.Load(),
		Replications:      m.replications.Load(),
		ReplicationErrors: m.replicationErrors.Load(),
		FlushFanouts:      m.flushFanouts.Load(),
	}
	m.mu.Lock()
	s.RoutedByShard = make(map[string]uint64, len(m.routed))
	for k, v := range m.routed {
		s.RoutedByShard[k] = v
	}
	m.mu.Unlock()
	return s
}

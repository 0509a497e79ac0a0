package fleet

import (
	"sort"
	"sync"
	"sync/atomic"

	"iotaxo/internal/obs"
)

// Router metrics, collected into the router's /metrics. Members come and go at runtime, so the per-replica series
// live behind a small mutex (one map lookup per dispatch); the counters
// themselves stay atomics, and removal deletes the member's series
// outright — a departed member must not linger as a frozen row.

type replicaCounters struct {
	requests atomic.Uint64 // sub-requests dispatched (failover retries included)
	rows     atomic.Uint64 // rows dispatched
	errors   atomic.Uint64 // sub-request failures (any kind)
}

type routerMetrics struct {
	requests  atomic.Uint64 // client requests routed
	errors    atomic.Uint64 // client requests failed
	failovers atomic.Uint64 // sub-requests retried on another replica
	remaps    atomic.Uint64 // ring membership flips (joins, ejections, drains, expiries)
	healthy   atomic.Int64  // current ring size

	mu         sync.Mutex
	names      []string // sorted for deterministic rendering
	perReplica map[string]*replicaCounters
}

// add creates the member's counter series (no-op when present: a
// re-registering member keeps its counts).
func (m *routerMetrics) add(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.perReplica[name]; ok {
		return
	}
	m.perReplica[name] = &replicaCounters{}
	m.names = append(m.names, name)
	sort.Strings(m.names)
}

// remove deletes the member's counter series.
func (m *routerMetrics) remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.perReplica[name]; !ok {
		return
	}
	delete(m.perReplica, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			break
		}
	}
}

func (m *routerMetrics) counters(name string) *replicaCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perReplica[name]
}

func (m *routerMetrics) dispatched(name string, rows int) {
	if c := m.counters(name); c != nil {
		c.requests.Add(1)
		c.rows.Add(uint64(rows))
	}
}

func (m *routerMetrics) replicaError(name string) {
	if c := m.counters(name); c != nil {
		c.errors.Add(1)
	}
}

// collect appends the iorouter_* series.
func (m *routerMetrics) collect(dst []obs.PromFamily) []obs.PromFamily {
	dst = append(dst,
		obs.Scalar("iorouter_requests_total", "Client requests routed.", "counter", float64(m.requests.Load())),
		obs.Scalar("iorouter_errors_total", "Client requests answered with an error.", "counter", float64(m.errors.Load())),
		obs.Scalar("iorouter_failovers_total", "Sub-requests retried on another replica after a fault.", "counter", float64(m.failovers.Load())),
		obs.Scalar("iorouter_ring_remaps_total", "Ring membership flips (joins, ejections, drains, expiries).", "counter", float64(m.remaps.Load())),
		obs.Scalar("iorouter_replicas_healthy", "Replicas currently on the ring.", "gauge", float64(m.healthy.Load())))
	requests := obs.PromFamily{Name: "iorouter_replica_requests_total", Help: "Sub-requests dispatched per replica.", Type: "counter"}
	rows := obs.PromFamily{Name: "iorouter_replica_rows_total", Help: "Rows dispatched per replica.", Type: "counter"}
	errors := obs.PromFamily{Name: "iorouter_replica_errors_total", Help: "Sub-request failures per replica.", Type: "counter"}
	m.mu.Lock()
	for _, n := range m.names {
		c, labels := m.perReplica[n], obs.Labels("replica", n)
		requests.Add(labels, float64(c.requests.Load()))
		rows.Add(labels, float64(c.rows.Load()))
		errors.Add(labels, float64(c.errors.Load()))
	}
	m.mu.Unlock()
	return append(dst, requests, rows, errors)
}

// collectConns appends iorouter_replica_connections_total for the Remote
// members: a reused="false" count that grows with traffic is churn, hops
// dialling again what the idle pool or the replica closed.
func (rt *Router) collectConns(dst []obs.PromFamily) []obs.PromFamily {
	f := obs.PromFamily{Name: "iorouter_replica_connections_total", Help: `Connections handed to predict hops per replica; reused="false" ones were dialled.`, Type: "counter"}
	rt.mu.Lock()
	for _, n := range rt.names {
		if rem, ok := rt.replicas[n].backend.(*Remote); ok {
			f.Add(obs.Labels("replica", n, "reused", "false"), float64(rem.dialled.Load()))
			f.Add(obs.Labels("replica", n, "reused", "true"), float64(rem.reused.Load()))
		}
	}
	rt.mu.Unlock()
	return append(dst, f)
}

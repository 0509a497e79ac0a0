package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Router metrics, rendered in Prometheus text format at the router's
// /metrics. Members come and go at runtime, so the per-replica series
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

func (m *routerMetrics) init(names []string) {
	m.perReplica = make(map[string]*replicaCounters, len(names))
	for _, n := range names {
		m.perReplica[n] = &replicaCounters{}
		m.names = append(m.names, n)
	}
	sort.Strings(m.names)
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

// WriteMetrics renders the iorouter_* series.
func (m *routerMetrics) WriteMetrics(w io.Writer) error {
	type scalar struct {
		name, help, typ string
		val             uint64
	}
	scalars := []scalar{
		{"iorouter_requests_total", "Client requests routed.", "counter", m.requests.Load()},
		{"iorouter_errors_total", "Client requests answered with an error.", "counter", m.errors.Load()},
		{"iorouter_failovers_total", "Sub-requests retried on another replica after a fault.", "counter", m.failovers.Load()},
		{"iorouter_ring_remaps_total", "Ring membership flips (joins, ejections, drains, expiries).", "counter", m.remaps.Load()},
		{"iorouter_replicas_healthy", "Replicas currently on the ring.", "gauge", uint64(m.healthy.Load())},
	}
	for _, s := range scalars {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.val); err != nil {
			return err
		}
	}
	// Snapshot the member set so rendering never races add/remove.
	m.mu.Lock()
	names := make([]string, len(m.names))
	copy(names, m.names)
	counters := make(map[string]*replicaCounters, len(m.perReplica))
	for n, c := range m.perReplica {
		counters[n] = c
	}
	m.mu.Unlock()
	type series struct {
		name, help string
		get        func(*replicaCounters) uint64
	}
	for _, s := range []series{
		{"iorouter_replica_requests_total", "Sub-requests dispatched per replica.", func(c *replicaCounters) uint64 { return c.requests.Load() }},
		{"iorouter_replica_rows_total", "Rows dispatched per replica.", func(c *replicaCounters) uint64 { return c.rows.Load() }},
		{"iorouter_replica_errors_total", "Sub-request failures per replica.", func(c *replicaCounters) uint64 { return c.errors.Load() }},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", s.name, s.help, s.name); err != nil {
			return err
		}
		for _, n := range names {
			if _, err := fmt.Fprintf(w, "%s{replica=%q} %d\n", s.name, n, s.get(counters[n])); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeConnMetrics renders iorouter_replica_connections_total for the Remote
// members: a reused="false" count that grows with traffic is churn, hops
// dialling again what the idle pool or the replica closed.
func (rt *Router) writeConnMetrics(w io.Writer) error {
	buf := []byte("# HELP iorouter_replica_connections_total Connections handed to predict hops per replica; reused=\"false\" ones were dialled.\n" +
		"# TYPE iorouter_replica_connections_total counter\n")
	rt.mu.Lock()
	for _, n := range rt.names {
		if rem, ok := rt.replicas[n].backend.(*Remote); ok {
			buf = fmt.Appendf(buf, "iorouter_replica_connections_total{replica=%q,reused=\"false\"} %d\niorouter_replica_connections_total{replica=%q,reused=\"true\"} %d\n",
				n, rem.dialled.Load(), n, rem.reused.Load())
		}
	}
	rt.mu.Unlock()
	_, err := w.Write(buf)
	return err
}

package fleet

import (
	"sync/atomic"

	"iotaxo/internal/obs"
)

// routerMetrics are the router-wide counters. Each member's own counters
// live on its replicaState, so a departed member's series leave /metrics
// with its record instead of lingering as a frozen row.
type routerMetrics struct {
	requests  atomic.Uint64 // client requests routed
	errors    atomic.Uint64 // client requests failed
	failovers atomic.Uint64 // sub-requests retried on another replica
}

// collect appends the iorouter_* series: the router's counters, the ring's
// size and epoch, and each member's dispatch counters, plus
// iorouter_replica_connections_total for the Remote members (a
// reused="false" count that grows with traffic is churn, hops dialling
// again what the idle pool or the replica closed).
func (rt *Router) collect(dst []obs.PromFamily) []obs.PromFamily {
	requests := obs.PromFamily{Name: "iorouter_replica_requests_total", Help: "Sub-requests dispatched per replica.", Type: "counter"}
	rows := obs.PromFamily{Name: "iorouter_replica_rows_total", Help: "Rows dispatched per replica.", Type: "counter"}
	errors := obs.PromFamily{Name: "iorouter_replica_errors_total", Help: "Sub-request failures per replica.", Type: "counter"}
	conns := obs.PromFamily{Name: "iorouter_replica_connections_total", Help: `Connections handed to predict hops per replica; reused="false" ones were dialled.`, Type: "counter"}
	rt.mu.Lock()
	healthy, remaps := rt.ring.Size(), rt.epoch.Load()
	for _, n := range rt.names {
		rs, labels := rt.replicas[n], obs.Labels("replica", n)
		requests.Add(labels, float64(rs.requests.Load()))
		rows.Add(labels, float64(rs.rows.Load()))
		errors.Add(labels, float64(rs.errors.Load()))
		if rem, ok := rs.backend.(*Remote); ok {
			conns.Add(obs.Labels("replica", n, "reused", "false"), float64(rem.dialled.Load()))
			conns.Add(obs.Labels("replica", n, "reused", "true"), float64(rem.reused.Load()))
		}
	}
	rt.mu.Unlock()
	m := &rt.metrics
	return append(dst,
		obs.Scalar("iorouter_requests_total", "Client requests routed.", "counter", float64(m.requests.Load())),
		obs.Scalar("iorouter_errors_total", "Client requests answered with an error.", "counter", float64(m.errors.Load())),
		obs.Scalar("iorouter_failovers_total", "Sub-requests retried on another replica after a fault.", "counter", float64(m.failovers.Load())),
		obs.Scalar("iorouter_ring_remaps_total", "Ring membership flips (joins, ejections, drains, expiries).", "counter", float64(remaps)),
		obs.Scalar("iorouter_replicas_healthy", "Replicas currently on the ring.", "gauge", float64(healthy)),
		requests, rows, errors, conns)
}

// Package fleet turns the single-node serving stack into a horizontally
// sharded fleet: a front-end router dispatches predict traffic to N
// shared-nothing ioserve replicas by duplicate-cache affinity, which
// monetizes the paper's duplicate-dominance finding at fleet scale.
//
// The pieces:
//
//	ring    — a consistent-hash ring over replica names keyed on the
//	          feature-vector hash. Repeat jobs hash to the same arc, so
//	          duplicate-affinity routing lands them on the replica whose
//	          LRU cache already holds their prediction — the same shape
//	          prefix-affinity routing takes in LLM serving stacks
//	          (ring.go)
//	policy  — the routing rule: a row group goes to its ring owner, and
//	          only when the owner has faulted does load pick the
//	          destination, the least-loaded untried replica (policy.go)
//	backends— the transport-neutral Predictor interface: Local wraps an
//	          in-process serve.Service (fleet tests, embedded replicas),
//	          Remote speaks the existing ioserve HTTP surface; both are
//	          the same serve internals, so the router cannot observe
//	          which transport it is talking to (local.go, remote.go)
//	router  — health-checked membership with a per-replica circuit
//	          breaker (internal/resilience): a dead replica is ejected
//	          and its hash arcs remapped minimally (every other
//	          replica's keys stay put), failed sub-requests fail over to
//	          the least-loaded survivor, and a recovered replica is probed
//	          half-open before its arcs return (router.go)
//	handler — the router's HTTP surface: POST /v1/predict (the ioserve
//	          contract, plus a per-replica share split in the response),
//	          GET /v1/fleet membership/health view, /healthz, /metrics
//	          (handler.go, metrics.go)
//
// Replicas stay shared-nothing at serve time but share one published
// registry tree on disk: the drift loop's publishes propagate fleet-wide
// through each replica's own reloader, and the router's single-cadence
// metrics scrape makes the per-replica active versions visible at
// GET /v1/fleet and the merged fleet series at the router's /metrics.
//
// Trace propagation: the router's trace ID is every sub-request's
// TraceParent (in the head of a Remote replica's request frame, beside the
// remaining budget: serve/hop.go); replicas record it as the parent of any
// trace they retain, so one router-side ID links the replica-side span trees
// of all the shards that served a request.
package fleet

import (
	"context"
	"errors"
	"fmt"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// ErrTraceNotFound reports that a replica does not hold the requested
// trace: never retained, already evicted from its ring, or tracing
// disabled on that replica. Stitching degrades the hop to a partial view
// instead of failing on it.
var ErrTraceNotFound = errors.New("fleet: trace not retained by replica")

// Predictor is the transport-neutral replica backend: the predict core
// extracted behind an interface so router-local (in-process) and remote
// (HTTP) replicas share the same serve internals.
type Predictor interface {
	// Name identifies the replica on the ring, in metrics labels, and in
	// response shares. Stable and unique within a fleet.
	Name() string
	// Predict serves one (sub-)request into out, reusing its Predictions
	// block and ServerTimings; out is the reply only when Predict returns
	// nil. Failures that map to an HTTP status (shed 429s, client 4xx,
	// replica 5xx) are *BackendError; anything else is a transport-level
	// failure. req, its row headers and out are the router's pooled storage,
	// on loan until Predict returns; the values the headers point at are the
	// caller's and outlive the call.
	Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error
	// Health reports liveness (the router's probe; also the circuit
	// breaker's half-open trial).
	Health(ctx context.Context) error
	// Metrics returns the replica's metric families. One scrape per probe
	// interval feeds everything the router needs — the gate inflight
	// that orders failover, the fleet view's active versions, and the
	// merged fleet-wide series on the router's /metrics.
	Metrics(ctx context.Context) ([]obs.PromFamily, error)
	// FetchTrace resolves one retained trace by ID for cross-process
	// stitching, returning ErrTraceNotFound when the replica no longer
	// (or never) holds it.
	FetchTrace(ctx context.Context, id uint64) (*obs.TraceDetail, error)
}

// BackendError is a replica-side failure that carries its HTTP status, so
// the router can answer the client exactly as the replica would have
// (429s stay 429s with their Retry-After, 404s stay 404s) and classify
// breaker-worthy failures (5xx) apart from client errors and sheds.
type BackendError struct {
	Status int
	// RetryAfter preserves the replica's Retry-After advice on sheds.
	RetryAfter string
	Msg        string
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("replica returned %d: %s", e.Status, e.Msg)
}

// Fault reports whether the error should count against the replica's
// circuit breaker: server faults do, client errors and overload sheds do
// not (a shedding replica is alive and protecting itself — ejecting it
// would dogpile its load onto the survivors).
func (e *BackendError) Fault() bool { return e.Status >= 500 }

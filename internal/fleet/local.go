package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// Local is the in-process replica backend: a *serve.Service wrapped in
// the Predictor interface, with the same admission-gate behavior the HTTP
// layer applies. Fleet tests run 3 of these against one router under
// -race; an embedded deployment can do the same in production. Because
// Predict goes through serve.(*Service).ServeRequest — the exact core the
// HTTP handler calls — a Local replica is behaviorally identical to a
// Remote one minus the network.
type Local struct {
	name string
	svc  *serve.Service
	gate *resilience.Gate
	// down simulates process death for chaos tests: while set, every call
	// fails at the "transport", exactly as a killed remote replica would
	// (connection refused), so the router's failover and breaker paths are
	// exercised without real processes.
	down atomic.Bool
}

// NewLocal wraps an in-process service as a replica backend. gate may be
// nil (no admission control, as with ioserve started without
// -admission-max-inflight).
func NewLocal(name string, svc *serve.Service, gate *resilience.Gate) *Local {
	return &Local{name: name, svc: svc, gate: gate}
}

// Name implements Predictor.
func (l *Local) Name() string { return l.name }

// SetDown toggles simulated process death. While down, Predict, Health,
// Metrics, and FetchTrace all fail with transport-level errors.
func (l *Local) SetDown(down bool) { l.down.Store(down) }

// errDown is the simulated connection-refused failure.
func (l *Local) errDown() error {
	return fmt.Errorf("fleet: replica %s: connection refused (down)", l.name)
}

// Predict implements Predictor over the in-process serve core, serving
// into out.
func (l *Local) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	if l.down.Load() {
		return l.errDown()
	}
	if l.gate != nil {
		ok, reason := l.gate.Admit(resilience.ClassPredict)
		if !ok {
			return &BackendError{
				Status:     429,
				RetryAfter: l.gate.RetryAfterHeader(),
				Msg:        fmt.Sprintf("overloaded (%s): retry later", reason),
			}
		}
		start := time.Now()
		defer func() { l.gate.Release(time.Since(start)) }()
	}
	if _, err := l.svc.ServeRequest(ctx, req, out); err != nil {
		// Map through the same error->status table the HTTP layer uses, so
		// the router classifies a local failure exactly as a remote one.
		return &BackendError{Status: serve.StatusForError(err), Msg: err.Error()}
	}
	return nil
}

// Health implements Predictor: an in-process service is healthy iff it is
// not simulating death.
func (l *Local) Health(ctx context.Context) error {
	if l.down.Load() {
		return l.errDown()
	}
	return nil
}

// Metrics implements Predictor with the in-process service's families.
// An embedded replica has no HTTP /metrics endpoint wiring the resilience
// collectors in, so an attached gate's families are appended here, as a
// gated ioserve exports them; the service must not also collect that gate.
func (l *Local) Metrics(ctx context.Context) ([]obs.PromFamily, error) {
	if l.down.Load() {
		return nil, l.errDown()
	}
	fams := l.svc.Metrics().Collect(nil)
	if l.gate != nil {
		fams = l.gate.Collect(fams)
	}
	return fams, nil
}

// FetchTrace implements Predictor from the in-process trace ring.
func (l *Local) FetchTrace(ctx context.Context, id uint64) (*obs.TraceDetail, error) {
	if l.down.Load() {
		return nil, l.errDown()
	}
	tr := l.svc.Tracer()
	if tr == nil {
		return nil, ErrTraceNotFound
	}
	t, ok := tr.Get(id)
	if !ok {
		return nil, ErrTraceNotFound
	}
	d := t.Detail()
	return &d, nil
}

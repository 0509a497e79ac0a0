// Package resilience is the serving stack's fault-tolerance layer: a
// bounded admission gate with load shedding in front of evaluation,
// circuit breakers and jittered backoff for the control plane (reloader,
// drift retraining), and the glue that exposes all of it on /metrics and
// the /v1/resilience admin endpoint.
//
// The package sits between obs (it reuses the moving-p99 latency ladder)
// and serve/drift (which thread a Gate and Breakers through their hot and
// control paths). It has no dependency on either serving package, so the
// cmd binaries can wire it into both without an import cycle.
package resilience

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"iotaxo/internal/obs"
)

// Set aggregates one process's resilience surfaces — at most one admission
// gate plus any number of named circuit breakers — behind a single metrics
// collector and admin-status view. A nil *Set is inert.
type Set struct {
	mu       sync.Mutex
	gate     *Gate
	breakers []*Breaker
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{} }

// SetGate attaches the admission gate (nil is allowed and means "no
// admission control configured").
func (s *Set) SetGate(g *Gate) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
}

// NewBreaker creates a named breaker under cfg and registers it with the
// set. Names appear as the {name=...} label on breaker metrics and in the
// /v1/resilience status, so keep them short and stable ("reload",
// "retrain").
func (s *Set) NewBreaker(name string, cfg BreakerConfig) *Breaker {
	b := newBreaker(name, cfg)
	if s != nil {
		s.mu.Lock()
		s.breakers = append(s.breakers, b)
		sort.Slice(s.breakers, func(i, j int) bool { return s.breakers[i].name < s.breakers[j].name })
		s.mu.Unlock()
	}
	return b
}

// RemoveBreaker drops a breaker from the set so its metric series and
// status rows disappear (fleet members that deregister take their breaker
// with them). Removing a breaker the set does not hold is a no-op.
func (s *Set) RemoveBreaker(b *Breaker) {
	if s == nil || b == nil {
		return
	}
	s.mu.Lock()
	for i, have := range s.breakers {
		if have == b {
			s.breakers = append(s.breakers[:i], s.breakers[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Status is the /v1/resilience admin view.
type Status struct {
	Admission *GateStatus     `json:"admission,omitempty"`
	Breakers  []BreakerStatus `json:"breakers,omitempty"`
}

// Status snapshots the set.
func (s *Set) Status() Status {
	var st Status
	if s == nil {
		return st
	}
	s.mu.Lock()
	gate, breakers := s.gate, s.breakers
	s.mu.Unlock()
	if gate != nil {
		gs := gate.Status()
		st.Admission = &gs
	}
	for _, b := range breakers {
		st.Breakers = append(st.Breakers, b.Status())
	}
	return st
}

// Collect appends the set's series (register with
// serve.Metrics.RegisterCollector). Breakers render sorted by name so
// scrapes are deterministic.
func (s *Set) Collect(dst []obs.PromFamily) []obs.PromFamily {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	gate, breakers := s.gate, s.breakers
	s.mu.Unlock()
	if gate != nil {
		dst = gate.Collect(dst)
	}
	if len(breakers) == 0 {
		return dst
	}
	state := obs.PromFamily{Name: "ioserve_breaker_state", Help: "Circuit breaker state (0 closed, 1 half-open, 2 open).", Type: "gauge"}
	trips := obs.PromFamily{Name: "ioserve_breaker_trips_total", Help: "Times each breaker transitioned closed/half-open to open.", Type: "counter"}
	failures := obs.PromFamily{Name: "ioserve_breaker_failures_total", Help: "Operation failures observed by each breaker.", Type: "counter"}
	for _, b := range breakers {
		st := b.Status()
		labels := obs.Labels("name", st.Name)
		state.Add(labels, float64(stateGaugeValue(st.State)))
		trips.Add(labels, float64(st.Trips))
		failures.Add(labels, float64(st.Failures))
	}
	return append(dst, state, trips, failures)
}

func stateGaugeValue(state string) int {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// Handler returns the GET /v1/resilience admin handler: the set's status
// as JSON (mount behind the admin-token middleware).
func (s *Set) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Status())
	})
}

// AdmitHandler wraps next with admission control under the given priority
// class: shed requests get 429 + Retry-After without reaching next. A nil
// gate passes everything through untouched. Control-class latencies are
// not fed to the gate's p99 (the latency trigger watches predict traffic
// only).
func AdmitHandler(g *Gate, class Class, next http.Handler) http.Handler {
	if g == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok, reason := g.Admit(class)
		if !ok {
			w.Header().Set("Retry-After", g.RetryAfterHeader())
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, "{\"error\":\"overloaded (%s): retry later\"}\n", reason)
			return
		}
		start := time.Now()
		defer func() {
			took := time.Since(start)
			if class != ClassPredict {
				took = -1
			}
			g.Release(took)
		}()
		next.ServeHTTP(w, r)
	})
}

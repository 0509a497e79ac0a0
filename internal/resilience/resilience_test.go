package resilience

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/obs"
)

func TestGateNilIsOpen(t *testing.T) {
	var g *Gate
	ok, reason := g.Admit(ClassPredict)
	if !ok || reason != "" {
		t.Fatalf("nil gate rejected: %v %q", ok, reason)
	}
	g.Release(time.Millisecond) // must not panic
}

func TestGateSoftCapShedsPredictOnly(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 2})
	for i := 0; i < 2; i++ {
		if ok, _ := g.Admit(ClassPredict); !ok {
			t.Fatalf("admit %d under cap rejected", i)
		}
	}
	ok, reason := g.Admit(ClassPredict)
	if ok || reason != ShedQueue {
		t.Fatalf("3rd predict: ok=%v reason=%q, want shed %q", ok, reason, ShedQueue)
	}
	// Control traffic rides through the soft cap (hard limit is 4 here).
	if ok, reason := g.Admit(ClassControl); !ok {
		t.Fatalf("control shed at soft cap: %q", reason)
	}
	st := g.Status()
	if st.Admitted != 3 || st.Shed[string(ShedQueue)] != 1 || st.Inflight != 3 {
		t.Fatalf("status %+v", st)
	}
}

func TestGateHardLimitShedsEverything(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 1, HardLimit: 2})
	g.Admit(ClassControl)
	g.Admit(ClassControl)
	ok, reason := g.Admit(ClassControl)
	if ok || reason != ShedHard {
		t.Fatalf("control above hard limit: ok=%v reason=%q", ok, reason)
	}
	if ok, reason := g.Admit(ClassPredict); ok || reason != ShedHard {
		t.Fatalf("predict above hard limit: ok=%v reason=%q", ok, reason)
	}
}

func TestGateLatencyTrigger(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 4, P99Threshold: time.Millisecond, P99Window: 4})
	// Arm the p99 with slow accepted requests.
	for i := 0; i < 4; i++ {
		if ok, _ := g.Admit(ClassPredict); !ok {
			t.Fatal("warm-up admit rejected")
		}
		g.Release(10 * time.Millisecond)
	}
	// Below the pressure floor (MaxInflight/2 = 2) the trigger stays quiet.
	if ok, _ := g.Admit(ClassPredict); !ok {
		t.Fatal("admit below pressure floor rejected despite idle gate")
	}
	// One more puts inflight above the floor — now the slow p99 sheds.
	if ok, _ := g.Admit(ClassPredict); !ok {
		t.Fatal("second admit rejected")
	}
	ok, reason := g.Admit(ClassPredict)
	if ok || reason != ShedLatency {
		t.Fatalf("under pressure with slow p99: ok=%v reason=%q", ok, reason)
	}
	// Releases without observation (shed/control) must not feed the p99.
	g.Release(-1)
}

// TestGateShedsOnFixedLatencies pins the latency trigger's decisions on a
// fixed sequence of 150-observation windows: the moving p99 is the bound of
// the nearest-rank (149th) latency, so two slow requests in a window shed
// under pressure and one does not.
func TestGateShedsOnFixedLatencies(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 4, P99Threshold: 50 * time.Millisecond, P99Window: 150})
	for _, w := range []struct {
		slow int
		shed bool
	}{{2, true}, {1, false}, {0, false}, {3, true}, {1, false}} {
		for i := 0; i < 150; i++ {
			took := time.Millisecond
			if i < w.slow {
				took = 100 * time.Millisecond
			}
			if ok, reason := g.Admit(ClassPredict); !ok {
				t.Fatalf("window with %d slow: observation %d shed (%s) with nothing inflight", w.slow, i, reason)
			}
			g.Release(took)
		}
		// Two held requests put the gate above its pressure floor of 2.
		g.Admit(ClassPredict)
		g.Admit(ClassPredict)
		ok, reason := g.Admit(ClassPredict)
		if ok == w.shed || (w.shed && reason != ShedLatency) {
			t.Fatalf("window with %d slow of 150: admitted %v (%q), want shed %v", w.slow, ok, reason, w.shed)
		}
		if ok {
			g.Release(-1)
		}
		g.Release(-1)
		g.Release(-1)
	}
}

func TestGateRetryAfterHeader(t *testing.T) {
	if h := NewGate(GateConfig{RetryAfter: 3 * time.Second}).RetryAfterHeader(); h != "3" {
		t.Fatalf("RetryAfterHeader = %q", h)
	}
	if h := NewGate(GateConfig{RetryAfter: 100 * time.Millisecond}).RetryAfterHeader(); h != "1" {
		t.Fatalf("sub-second advice must round up to 1, got %q", h)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker("test", BreakerConfig{Threshold: 2, Cooldown: 20 * time.Millisecond})
	if !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if !b.Allow() {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.Failure() // trips
	if b.Allow() {
		t.Fatal("open breaker allowed an operation before cooldown")
	}
	if st := b.Status(); st.State != StateOpen || st.Trips != 1 {
		t.Fatalf("status after trip: %+v", st)
	}
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no half-open probe allowed")
	}
	// Exactly one probe: a second Allow while half-open fails.
	if b.Allow() {
		t.Fatal("second probe allowed while half-open")
	}
	b.Failure() // probe failed: re-open
	if b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no second probe after re-open cooldown")
	}
	b.Success()
	if st := b.Status(); st.State != StateClosed || st.Trips != 2 {
		t.Fatalf("status after successful probe: %+v", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejects")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker("test", BreakerConfig{Threshold: 2})
	b.Failure()
	b.Success()
	b.Failure()
	if !b.Allow() {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must allow")
	}
	b.Success()
	b.Failure()
	_ = b.Status()
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0 }}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second}
	for i, w := range want {
		if d := b.Delay(i + 1); d != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, d, w)
		}
	}
}

func TestBackoffJitterOnlyShortens(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Second, Rand: func() float64 { return 1 }}
	if d := b.Delay(1); d != 500*time.Millisecond {
		t.Fatalf("full jitter draw: %v, want 500ms", d)
	}
}

func TestRetryStopsOnSuccessAndContext(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 5, Backoff{Base: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	err = Retry(ctx, 5, Backoff{Base: time.Hour}, func() error { calls++; return errors.New("down") })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancelled retry: err=%v calls=%d", err, calls)
	}
}

func TestRetryReturnsLastError(t *testing.T) {
	sentinel := errors.New("still down")
	err := Retry(context.Background(), 3, Backoff{Base: time.Microsecond}, func() error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetMetricsAndStatus(t *testing.T) {
	s := NewSet()
	g := NewGate(GateConfig{MaxInflight: 2})
	s.SetGate(g)
	// Names register sorted regardless of creation order.
	rb := s.NewBreaker("retrain", BreakerConfig{Threshold: 1})
	s.NewBreaker("reload", BreakerConfig{})
	g.Admit(ClassPredict)
	g.Release(-1)
	rb.Failure() // trips (threshold 1)

	var buf strings.Builder
	if err := obs.WriteFamilies(&buf, s.Collect(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ioserve_admission_admitted_total 1",
		`ioserve_admission_shed_total{reason="queue"} 0`,
		`ioserve_breaker_state{name="reload"} 0`,
		`ioserve_breaker_state{name="retrain"} 2`,
		`ioserve_breaker_trips_total{name="retrain"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `name="reload"`) > strings.Index(out, `name="retrain"`) {
		t.Error("breakers not sorted by name")
	}

	st := s.Status()
	if st.Admission == nil || len(st.Breakers) != 2 || st.Breakers[1].State != StateOpen {
		t.Fatalf("status %+v", st)
	}
}

func TestAdmitHandler(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 1, HardLimit: 1, RetryAfter: 2 * time.Second})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h := AdmitHandler(g, next)

	// Fill the gate so the wrapped request sheds.
	if ok, _ := g.Admit(ClassControl); !ok {
		t.Fatal("setup admit failed")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q", rec.Header().Get("Retry-After"))
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("body %q", rec.Body.String())
	}
	g.Release(-1)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after release", rec.Code)
	}
	if in := g.Status().Inflight; in != 0 {
		t.Fatalf("slot leaked through AdmitHandler: inflight=%d", in)
	}

	// A nil gate is a pass-through.
	rec = httptest.NewRecorder()
	AdmitHandler(nil, next).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil-gate status %d", rec.Code)
	}
}

package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	specs, err := ParseSLO("predict:p99=25ms,avail=99.9;control:avail=99")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs: %+v", len(specs), specs)
	}
	if specs[0].Class != "predict" || specs[0].Quantile != 0.99 || specs[0].Target != 25*time.Millisecond {
		t.Fatalf("latency spec wrong: %+v", specs[0])
	}
	if got := specs[0].String(); got != "predict:p99<=25ms" {
		t.Fatalf("latency spec renders %q", got)
	}
	if a := specs[1].Availability; a < 0.998999 || a > 0.999001 {
		t.Fatalf("avail spec wrong: %+v", specs[1])
	}
	if got := specs[1].String(); got != "predict:availability>=99.9%" {
		t.Fatalf("avail spec renders %q", got)
	}
	if specs[2].Class != "control" || specs[2].Availability != 0.99 {
		t.Fatalf("second class wrong: %+v", specs[2])
	}

	for _, bad := range []string{
		"",
		"predict",
		"predict:",
		"predict:p99",
		"predict:p75=10ms",
		"predict:p99=banana",
		"predict:p99=-5ms",
		"predict:avail=0",
		"predict:avail=100",
		"predict:avail=150",
		":p99=10ms",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestSLOAvailabilityBurn(t *testing.T) {
	specs, _ := ParseSLO("predict:avail=99")
	s := NewSLO(specs)
	now := time.Unix(100_000, 0)
	s.Now = func() time.Time { return now }

	// 100 requests, 5 bad: 5% bad against a 1% budget = burn 5.
	for i := 0; i < 95; i++ {
		s.Observe("predict", 200, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		s.Observe("predict", 500, time.Millisecond)
	}
	// 429 sheds are not SLO-bad; unknown classes are ignored.
	s.Observe("predict", 429, time.Millisecond)
	s.Observe("nosuch", 500, time.Millisecond)

	st := s.Status()
	if len(st) != 1 {
		t.Fatalf("Status = %+v", st)
	}
	o := st[0]
	if o.Requests != 101 || o.Bad != 5 {
		t.Fatalf("requests/bad = %d/%d, want 101/5", o.Requests, o.Bad)
	}
	if o.BurnRateSlow < 4.8 || o.BurnRateSlow > 5.0 {
		t.Fatalf("slow burn = %g, want ~4.95", o.BurnRateSlow)
	}
	if o.Alert != "ok" || o.Met {
		t.Fatalf("alert=%q met=%v, want ok (ticket needs burn>=6) and unmet", o.Alert, o.Met)
	}
	if o.ObservedAvail >= 1 || o.ObservedAvail < 0.95 {
		t.Fatalf("observed availability = %g", o.ObservedAvail)
	}
}

func TestSLOAlertStates(t *testing.T) {
	specs, _ := ParseSLO("predict:avail=99")
	s := NewSLO(specs)
	now := time.Unix(100_000, 0)
	s.Now = func() time.Time { return now }

	// 20% bad against a 1% budget = burn 20 in both windows: page.
	for i := 0; i < 80; i++ {
		s.Observe("predict", 200, time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		s.Observe("predict", 502, time.Millisecond)
	}
	if st := s.Status()[0]; st.Alert != "page" || st.Met {
		t.Fatalf("alert=%q met=%v, want page/unmet", st.Alert, st.Met)
	}

	// 10 minutes later the fast (5m) window has drained but the slow (1h)
	// window still burns: page degrades to ticket.
	now = now.Add(10 * time.Minute)
	for i := 0; i < 10; i++ {
		s.Observe("predict", 200, time.Millisecond)
	}
	if st := s.Status()[0]; st.Alert != "ticket" {
		t.Fatalf("alert=%q, want ticket after the fast window drained", st.Alert)
	}

	// Two hours later both windows have drained entirely.
	now = now.Add(2 * time.Hour)
	for i := 0; i < 10; i++ {
		s.Observe("predict", 200, time.Millisecond)
	}
	st := s.Status()[0]
	if st.Alert != "ok" || !st.Met || st.Requests != 10 || st.Bad != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	specs, _ := ParseSLO("predict:p99=5ms")
	s := NewSLO(specs)
	now := time.Unix(100_000, 0)
	s.Now = func() time.Time { return now }

	// Non-200s are excluded from the latency objective entirely.
	s.Observe("predict", 500, time.Hour)
	for i := 0; i < 90; i++ {
		s.Observe("predict", 200, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.Observe("predict", 200, 50*time.Millisecond)
	}
	st := s.Status()[0]
	if st.Requests != 100 {
		t.Fatalf("latency objective counted non-200s: %d", st.Requests)
	}
	if st.Bad != 10 {
		t.Fatalf("bad = %d, want 10 over-target", st.Bad)
	}
	// 10% bad against a 1% budget: burn 10, budget blown.
	if st.Met {
		t.Fatal("objective reported met while 10x over budget")
	}
	if st.TargetNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("target_ns = %d", st.TargetNs)
	}
	// Observed p99 lands on the ladder bucket holding the 50ms tail.
	if st.ObservedQuantileNs < (25 * time.Millisecond).Nanoseconds() {
		t.Fatalf("observed quantile = %dns, want the slow tail visible", st.ObservedQuantileNs)
	}
}

func TestSLOMetrics(t *testing.T) {
	specs, _ := ParseSLO("predict:p99=5ms,avail=99.9")
	s := NewSLO(specs)
	s.Observe("predict", 200, time.Millisecond)

	out := render(t, s.Collect("iorouter", nil))
	for _, want := range []string{
		"# TYPE iorouter_slo_requests_total counter",
		`iorouter_slo_requests_total{class="predict",objective="predict:p99<=5ms"} 1`,
		`iorouter_slo_burn_rate{class="predict",objective="predict:availability>=99.9%",window="5m"} 0`,
		`iorouter_slo_met{class="predict",objective="predict:p99<=5ms"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestSLOMiddleware(t *testing.T) {
	specs, _ := ParseSLO("predict:avail=99.9")
	s := NewSLO(specs)
	classify := func(r *http.Request) string {
		if r.URL.Path == "/v1/predict" {
			return "predict"
		}
		return ""
	}
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/predict" && r.Method == http.MethodDelete {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Write([]byte("ok")) // implicit 200
	})
	h := SLOMiddleware(s, classify, next)

	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/predict", nil),
		httptest.NewRequest(http.MethodDelete, "/v1/predict", nil),
		httptest.NewRequest(http.MethodGet, "/metrics", nil), // classify "" -> skipped
	} {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	st := s.Status()[0]
	if st.Requests != 2 || st.Bad != 1 {
		t.Fatalf("middleware observed %d/%d, want 2 requests 1 bad", st.Requests, st.Bad)
	}

	// A nil SLO passes through untouched.
	if got := SLOMiddleware(nil, classify, next); got == nil {
		t.Fatal("nil SLO middleware returned nil")
	}
}

// TestQuantileBoundIsNearestRank: the rank is ⌈q·n⌉ exactly, at the counts
// where ⌊q·n⌋ and a floating-point product both miss it by one.
func TestQuantileBoundIsNearestRank(t *testing.T) {
	fast, slow := LatencyBuckets[0], LatencyBuckets[1]
	for _, n := range []uint64{1, 99, 100, 101, 150, 12_345} {
		for _, pct := range []uint64{50, 90, 99} {
			rank := (n*pct + 99) / 100
			q := float64(pct) / 100
			// The rank-th observation is the first slow one, then the last fast one.
			if got := quantileBound([]uint64{rank - 1, n - rank + 1}, n, q); got != slow {
				t.Errorf("n=%d q=%v, %d fast: %d, want the slow bound %d", n, q, rank-1, got, slow)
			}
			if got := quantileBound([]uint64{rank, n - rank}, n, q); got != fast {
				t.Errorf("n=%d q=%v, %d fast: %d, want the fast bound %d", n, q, rank, got, fast)
			}
		}
	}
	if got := quantileBound(make([]uint64, len(LatencyBuckets)+1), 0, 0.99); got != 0 {
		t.Errorf("empty counts: %d, want 0", got)
	}
}

// TestSLOObservedQuantileAt150: 148 fast requests and 2 slow ones put the
// nearest-rank p99 (the 149th) on the slow bucket.
func TestSLOObservedQuantileAt150(t *testing.T) {
	specs, _ := ParseSLO("predict:p99=50ms")
	s := NewSLO(specs)
	now := time.Unix(100_000, 0)
	s.Now = func() time.Time { return now }
	for i := 0; i < 150; i++ {
		d := time.Millisecond
		if i%75 == 74 {
			d = 100 * time.Millisecond
		}
		s.Observe("predict", 200, d)
	}
	st := s.Status()[0]
	if st.Requests != 150 || st.ObservedQuantileNs != (100*time.Millisecond).Nanoseconds() {
		t.Fatalf("%d requests, observed p99 %d ns; want 150 and the 100 ms bound", st.Requests, st.ObservedQuantileNs)
	}
}

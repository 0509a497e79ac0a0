package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if got := tr.Start("theta", 1, time.Now()); got != nil {
		t.Fatalf("nil tracer Start = %+v, want nil", got)
	}
	if id := tr.Finish(nil); id != 0 {
		t.Fatalf("nil tracer Finish = %d, want 0", id)
	}
}

// TestSpanLifecycleAndPooling: Start hands out reset traces (no state
// leaks across pool reuse) with unique ascending IDs, and a kept trace is
// retrievable by the ID Finish returned.
func TestSpanLifecycleAndPooling(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 8})
	a := tr.Start("theta", 1, time.Unix(50, 0))
	a.Err = "boom"
	a.Timings.Ns[StageEvaluate] = 123
	idA := tr.Finish(a)
	if idA == 0 {
		t.Fatal("error trace was dropped")
	}
	// The pool almost certainly hands the same *Trace back; either way the
	// new trace must carry no residue of the old one.
	b := tr.Start("cori", 2, time.Unix(60, 0))
	if b.Err != "" || b.Keep != "" || b.Timings.Ns[StageEvaluate] != 0 {
		t.Fatalf("pooled trace not reset: %+v", b)
	}
	if b.ID <= idA {
		t.Fatalf("IDs not ascending: %d then %d", idA, b.ID)
	}
	if b.System != "cori" || b.Version != 2 {
		t.Fatalf("trace identity wrong: %+v", b)
	}
	idB := tr.Finish(b)
	got, ok := tr.Get(idB)
	if !ok || got.System != "cori" || got.Keep != KeepSampled {
		t.Fatalf("Get(%d) = %+v, %v", idB, got, ok)
	}
	// The retained copy of A must be unaffected by B's pool reuse.
	gotA, ok := tr.Get(idA)
	if !ok || gotA.Err != "boom" || gotA.Keep != KeepError {
		t.Fatalf("Get(%d) = %+v, %v", idA, gotA, ok)
	}
}

// TestTailSamplingReasons runs the keep policy's full precedence, shed >
// deadline > error > OoD > slow > sampled > dropped, through both tracers'
// Finish. The router tracer has no shed, deadline or OoD input, so it runs
// the rows that set none of them. The slow bar is pinned and the head
// sample is a count, so no row depends on a clock.
func TestTailSamplingReasons(t *testing.T) {
	const slowNs = int64(2 * time.Millisecond)
	for _, tc := range []struct {
		name                     string
		shed, deadline, err, ood bool
		totalNs                  int64
		sampleEvery              int
		want                     string
	}{
		{"shed beats everything", true, true, true, true, slowNs, 1, KeepShed},
		{"deadline beats error", false, true, true, true, slowNs, 1, KeepDeadline},
		{"error beats ood", false, false, true, true, slowNs, 1, KeepError},
		{"ood beats slow", false, false, false, true, slowNs, 1, KeepOoD},
		{"error beats slow", false, false, true, false, slowNs, 1, KeepError},
		{"slow beats sampled", false, false, false, false, slowNs, 1, KeepSlow},
		{"sampled", false, false, false, false, 1000, 1, KeepSampled},
		{"dropped", false, false, false, false, 1000, 0, ""},
	} {
		cfg := Config{SampleEvery: tc.sampleEvery, SlowAfter: time.Millisecond}
		tr := NewTracer(cfg)
		trace := tr.Start("theta", 1, time.Unix(0, 0))
		trace.Shed, trace.Deadline, trace.Timings.TotalNs = tc.shed, tc.deadline, tc.totalNs
		if tc.err {
			trace.Err = "boom"
		}
		if tc.ood {
			trace.Timings.OoDFlagged = 1
		}
		got := ""
		if id := tr.Finish(trace); id != 0 {
			kept, _ := tr.Get(id)
			got = kept.Keep
		}
		if got != tc.want {
			t.Errorf("Tracer %s: kept %q, want %q", tc.name, got, tc.want)
		}
		if tc.shed || tc.deadline || tc.ood {
			continue
		}
		rt := NewRouterTracer(cfg)
		ft := &FleetTrace{ID: 1, TotalNs: tc.totalNs}
		if tc.err {
			ft.Err = "boom"
		}
		got = ""
		if rt.Finish(ft) != 0 {
			kept, _ := rt.Get(1)
			got = kept.Keep
		}
		if got != tc.want {
			t.Errorf("RouterTracer %s: kept %q, want %q", tc.name, got, tc.want)
		}
	}

	// Head sampling keeps 1 in 2 of otherwise-dropped traces.
	tr2 := NewTracer(Config{SampleEvery: 2, RingSize: 16, SlowAfter: time.Hour})
	kept := 0
	for i := 0; i < 10; i++ {
		tc := tr2.Start("theta", 1, time.Now())
		if tr2.Finish(tc) != 0 {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("head sample kept %d of 10, want 5", kept)
	}
}

// TestMovingP99Arms: with no SlowAfter pin, the threshold stays disarmed
// (MaxInt64) until slowRecomputeEvery observations, then lands on the p99
// bucket bound of the observed distribution.
func TestMovingP99Arms(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 0, RingSize: 4})
	if tr.SlowThreshold() != time.Duration(math.MaxInt64) {
		t.Fatalf("threshold armed prematurely: %v", tr.SlowThreshold())
	}
	// 127 fast requests (~80µs) + 1 at 900ms: p99 lands in the 100µs bucket.
	for i := 0; i < slowRecomputeEvery-1; i++ {
		tc := tr.Start("theta", 1, time.Now())
		tc.Timings.TotalNs = 80_000
		tr.Finish(tc)
	}
	tc := tr.Start("theta", 1, time.Now())
	tc.Timings.TotalNs = 900_000_000
	tr.Finish(tc)
	if got := tr.SlowThreshold(); got != 100*time.Microsecond {
		t.Fatalf("threshold = %v, want 100µs", got)
	}
	// Now a 200µs request is slower than the moving p99 and is retained.
	tc = tr.Start("theta", 1, time.Now())
	tc.Timings.TotalNs = 200_000
	id := tr.Finish(tc)
	if id == 0 {
		t.Fatal("slower-than-p99 trace was dropped")
	}
	if got, _ := tr.Get(id); got.Keep != KeepSlow {
		t.Fatalf("keep = %q, want %q", got.Keep, KeepSlow)
	}
}

func TestTracerWriteMetrics(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 4})
	tc := tr.Start("theta", 1, time.Now())
	tr.Finish(tc)
	out := render(t, tr.Collect(nil))
	for _, want := range []string{
		`ioserve_traces_kept_total{reason="sampled"} 1`,
		`ioserve_traces_kept_total{reason="error"} 0`,
		"ioserve_traces_dropped_total 0",
		// Unarmed threshold renders 0, not MaxInt64.
		"ioserve_trace_slow_threshold_seconds 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Reasons must render in fixed order for deterministic scrapes.
	if strings.Index(out, `reason="error"`) > strings.Index(out, `reason="sampled"`) {
		t.Error("keep reasons not in fixed order")
	}
}

func TestRecentNewestFirst(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 4})
	var ids []uint64
	for i := 0; i < 3; i++ {
		tc := tr.Start("theta", 1, time.Now())
		ids = append(ids, tr.Finish(tc))
	}
	recent := tr.Recent(0)
	if len(recent) != 3 || recent[0].ID != ids[2] || recent[2].ID != ids[0] {
		t.Fatalf("Recent = %+v, want newest first of %v", recent, ids)
	}
}

// TestShedAndDeadlineStayOutOfP99: a window of shed or deadline-expired
// traces at 900 ms leaves the adaptive threshold unarmed, since neither
// measured the model; a window of errors at the same latency arms it, on
// both tracers.
func TestShedAndDeadlineStayOutOfP99(t *testing.T) {
	for _, mark := range []func(*Trace){
		func(tc *Trace) { tc.Shed = true },
		func(tc *Trace) { tc.Deadline = true },
	} {
		tr := NewTracer(Config{})
		for i := 0; i < slowRecomputeEvery; i++ {
			tc := tr.Start("theta", 1, time.Unix(0, 0))
			tc.Timings.TotalNs = 900_000_000
			mark(tc)
			tr.Finish(tc)
		}
		if ns := tr.SlowThresholdNs(); ns != 0 {
			t.Fatalf("threshold armed at %d ns by traces that never reached the model", ns)
		}
	}
	tr := NewTracer(Config{})
	rt := NewRouterTracer(Config{})
	for i := 0; i < slowRecomputeEvery; i++ {
		tc := tr.Start("theta", 1, time.Unix(0, 0))
		tc.Timings.TotalNs, tc.Err = 900_000_000, "boom"
		tr.Finish(tc)
		rt.Finish(&FleetTrace{ID: uint64(i + 1), TotalNs: 900_000_000, Err: "boom"})
	}
	for name, ns := range map[string]int64{"Tracer": tr.SlowThresholdNs(), "RouterTracer": rt.SlowThresholdNs()} {
		if ns != int64(time.Second) {
			t.Errorf("%s threshold after a window of errors = %d ns, want the 1 s bucket", name, ns)
		}
	}
}

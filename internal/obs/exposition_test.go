package obs

import (
	"errors"
	"testing"
	"time"
)

// finishSequence drives both tracers through the same 300 finished
// requests: latencies spread over the ladder with a periodic 30 ms and
// 300 ms tail, errors, OoD flags, sheds and deadline expiries at co-prime
// periods, and a 1-in-7 head sample. Nothing reads a clock, so the
// exposition afterwards is a pure function of the keep policy.
func finishSequence(tr *Tracer, rt *RouterTracer) {
	for i := 0; i < 300; i++ {
		ns := int64(50_000 * (1 + i%37))
		switch {
		case i%89 == 0:
			ns = 300_000_000
		case i%41 == 0:
			ns = 30_000_000
		}
		tc := tr.Start("theta", 1, time.Unix(0, 0))
		tc.Timings.TotalNs = ns
		if i%13 == 0 {
			tc.Err = "boom"
		}
		if i%11 == 0 {
			tc.Timings.OoDFlagged = 1
		}
		tc.Shed = i%29 == 0
		tc.Deadline = i%31 == 0
		tr.Finish(tc)

		ft := &FleetTrace{ID: uint64(i + 1), System: "theta", TotalNs: ns}
		if i%13 == 0 {
			ft.Err = "boom"
		}
		rt.Finish(ft)
	}
}

// goldenTraceExposition is both tracers' series after finishSequence. The
// two thresholds differ because shed and deadline traces stay out of the
// replica tracer's p99 feed.
const goldenTraceExposition = `# HELP ioserve_traces_kept_total Traces retained by tail-sampling, by reason.
# TYPE ioserve_traces_kept_total counter
ioserve_traces_kept_total{reason="error"} 23
ioserve_traces_kept_total{reason="deadline"} 9
ioserve_traces_kept_total{reason="shed"} 11
ioserve_traces_kept_total{reason="ood"} 25
ioserve_traces_kept_total{reason="slow"} 2
ioserve_traces_kept_total{reason="sampled"} 32
# HELP ioserve_traces_dropped_total Finished traces discarded by sampling.
# TYPE ioserve_traces_dropped_total counter
ioserve_traces_dropped_total 198
# HELP ioserve_trace_slow_threshold_seconds Moving p99 threshold above which traces are always retained (0 until armed).
# TYPE ioserve_trace_slow_threshold_seconds gauge
ioserve_trace_slow_threshold_seconds 0.5
# HELP iorouter_traces_kept_total Routed traces retained by tail-sampling, by reason.
# TYPE iorouter_traces_kept_total counter
iorouter_traces_kept_total{reason="error"} 24
iorouter_traces_kept_total{reason="deadline"} 0
iorouter_traces_kept_total{reason="shed"} 0
iorouter_traces_kept_total{reason="ood"} 0
iorouter_traces_kept_total{reason="slow"} 1
iorouter_traces_kept_total{reason="sampled"} 39
# HELP iorouter_traces_dropped_total Finished routed traces discarded by sampling.
# TYPE iorouter_traces_dropped_total counter
iorouter_traces_dropped_total 236
# HELP iorouter_trace_slow_threshold_seconds Moving p99 threshold above which routed traces are always retained (0 until armed).
# TYPE iorouter_trace_slow_threshold_seconds gauge
iorouter_trace_slow_threshold_seconds 0.05
`

// TestTraceExpositionGolden pins the tracers' exposition byte for byte:
// names, HELP texts, reason order, counts and the armed thresholds.
func TestTraceExpositionGolden(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 7, RingSize: 16})
	rt := NewRouterTracer(Config{SampleEvery: 7, RingSize: 16})
	finishSequence(tr, rt)
	if got := render(t, rt.Collect(tr.Collect(nil))); got != goldenTraceExposition {
		t.Fatalf("trace exposition drifted:\n%s", got)
	}
}

// failFirstWriter rejects its first write and accepts every later one, so
// a writer that drops an early error and returns only the last one's is
// caught.
type failFirstWriter struct{ writes int }

var errScrape = errors.New("scrape client went away")

func (w *failFirstWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		return 0, errScrape
	}
	return len(p), nil
}

func TestTracerWriteMetricsReturnsWriterError(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	rt := NewRouterTracer(Config{SampleEvery: 1})
	for name, fams := range map[string][]PromFamily{"ioserve": tr.Collect(nil), "iorouter": rt.Collect(nil)} {
		if err := WriteFamilies(&failFirstWriter{}, fams); !errors.Is(err, errScrape) {
			t.Errorf("%s tracer render = %v, want the writer's error", name, err)
		}
	}
}

// TestWriteFamiliesReturnsWriterError covers the two collectors whose text
// writers used to drop every write error — the SLO and the fleet scrape —
// and pins the one Write a render makes, whatever the family count.
func TestWriteFamiliesReturnsWriterError(t *testing.T) {
	specs, err := ParseSLO("predict:p99=25ms,avail=99.9")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetScrape([]string{"r1"})
	fs.Record("r1", sampleFamilies(t))
	for name, fams := range map[string][]PromFamily{
		"slo":         NewSLO(specs).Collect("iorouter", nil),
		"fleetscrape": fs.Collect(nil),
	} {
		w := &failFirstWriter{}
		if err := WriteFamilies(w, fams); !errors.Is(err, errScrape) {
			t.Errorf("%s render = %v, want the writer's error", name, err)
		}
		if w.writes != 1 {
			t.Errorf("%s render made %d writes, want 1", name, w.writes)
		}
	}
}

// TestTracingAllocs pins the replica tracer's per-request cost: a pooled
// Start and a Finish allocate nothing whether the trace is kept (copied into
// the ring) or dropped, and neither does feeding the moving p99. sync.Pool
// drops items at random under the race detector, so the pins skip there.
func TestTracingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomised under -race")
	}
	keep := NewTracer(Config{SampleEvery: 1, SlowAfter: time.Hour})
	drop := NewTracer(Config{SlowAfter: time.Hour})
	start := time.Unix(0, 0)
	for name, tr := range map[string]*Tracer{"keep": keep, "drop": drop} {
		if n := testing.AllocsPerRun(1000, func() {
			tc := tr.Start("theta", 1, start)
			tc.Timings.TotalNs = 80_000
			tr.Finish(tc)
		}); n != 0 {
			t.Errorf("Tracer Start+Finish (%s) = %v allocs, want 0", name, n)
		}
	}
	p99 := NewMovingP99(0)
	ns := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		ns += 37_000
		p99.Observe(ns % 2_000_000_000)
	}); n != 0 {
		t.Errorf("MovingP99.Observe = %v allocs, want 0", n)
	}
}

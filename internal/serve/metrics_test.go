package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/obs"
)

// scrape renders m the way GET /metrics does.
func scrape(t *testing.T, m *Metrics) string {
	t.Helper()
	var sb strings.Builder
	if err := obs.WriteFamilies(&sb, m.Collect(nil)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLatencyHistObserve checks bucket assignment, cumulative rendering,
// and the sum/count lines.
func TestLatencyHistObserve(t *testing.T) {
	var h LatencyHist
	h.Observe(10 * time.Microsecond)  // <= 50µs bucket
	h.Observe(50 * time.Microsecond)  // boundary: still <= 50µs
	h.Observe(200 * time.Microsecond) // <= 250µs
	h.Observe(3 * time.Second)        // +Inf overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	f := obs.PromFamily{Name: "x_seconds", Help: "Predict call latency.", Type: "histogram"}
	h.appendTo(&f)
	var sb strings.Builder
	if err := obs.WriteFamilies(&sb, []obs.PromFamily{f}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		"x_seconds_bucket{le=\"5e-05\"} 2",
		"x_seconds_bucket{le=\"0.00025\"} 3",
		"x_seconds_bucket{le=\"1\"} 3",
		"x_seconds_bucket{le=\"+Inf\"} 4",
		"x_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone: every later bucket >= earlier.
	prev := uint64(0)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum < prev {
			t.Fatalf("bucket %d not cumulative", i)
		}
		prev = cum
	}
}

// TestPerSystemMetrics drives the in-process service and checks the
// per-system counters and labeled exposition lines.
func TestPerSystemMetrics(t *testing.T) {
	_, v1, _ := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{CacheSize: 1 << 10})
	defer svc.Close()

	row := fixtureFrame.Row(0)
	ctx := context.Background()
	// Two requests for the same row: second is a cache hit.
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Predict(ctx, "theta", 0, [][]float64{row}); err != nil {
			t.Fatal(err)
		}
	}
	// One failing request for an unknown system: counted on the unlabeled
	// totals only — bogus names must not create labeled series, or a
	// misbehaving client could grow /metrics cardinality without bound.
	if _, _, err := svc.Predict(ctx, "nope", 0, [][]float64{row}); err == nil {
		t.Fatal("expected unknown-system error")
	}
	// One failing request for a known system (schema mismatch): labeled.
	if _, _, err := svc.Predict(ctx, "theta", 0, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected width-mismatch error")
	}

	sys := svc.Metrics().System("theta")
	if got := sys.Requests.Load(); got != 3 {
		t.Errorf("theta requests = %d, want 3", got)
	}
	if got := sys.Predictions.Load(); got != 2 {
		t.Errorf("theta predictions = %d, want 2", got)
	}
	if got := sys.CacheHits.Load(); got != 1 {
		t.Errorf("theta cache hits = %d, want 1", got)
	}
	if got := sys.CacheMisses.Load(); got != 1 {
		t.Errorf("theta cache misses = %d, want 1", got)
	}
	if got := sys.Errors.Load(); got != 1 {
		t.Errorf("theta errors = %d, want 1", got)
	}
	if got := svc.Metrics().Errors.Load(); got != 2 {
		t.Errorf("global errors = %d, want 2", got)
	}
	for _, name := range svc.Metrics().Systems() {
		if name != "theta" {
			t.Errorf("unexpected labeled system %q", name)
		}
	}
	if got := svc.Metrics().Latency.Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2 (errors not timed)", got)
	}

	out := scrape(t, svc.Metrics())
	for _, want := range []string{
		`ioserve_system_requests_total{system="theta"} 3`,
		`ioserve_system_cache_hits_total{system="theta"} 1`,
		`ioserve_system_errors_total{system="theta"} 1`,
		"ioserve_errors_total 2",
		"# TYPE ioserve_request_latency_seconds histogram",
		"ioserve_request_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, `system="nope"`) {
		t.Error("unknown system leaked into labeled series")
	}
}

func TestPruneShadowDropsRetiredComparisons(t *testing.T) {
	m := &Metrics{}
	m.Shadow(ShadowKey{"theta", 2, 1, RoleShadow}).observe(0.1, 1, true, false, 100)
	m.Shadow(ShadowKey{"theta", 3, 2, RoleShadow}).observe(0.2, 2, true, false, 100)
	m.Shadow(ShadowKey{"cori", 2, 1, RoleShadow}).observe(0.3, 3, true, false, 100)
	// theta v1 retired: only the comparison touching it goes; cori's
	// identical-looking key is out of scope.
	live := map[int]bool{2: true, 3: true}
	if dropped := m.PruneShadow("theta", func(v int) bool { return live[v] }); dropped != 1 {
		t.Fatalf("dropped %d comparisons, want 1", dropped)
	}
	snaps := m.ShadowSnapshots("")
	if len(snaps) != 2 {
		t.Fatalf("%d comparisons survive, want 2: %+v", len(snaps), snaps)
	}
	for _, s := range snaps {
		if s.System == "theta" && s.Target == 1 {
			t.Errorf("retired comparison survived: %+v", s)
		}
	}
}

// TestObserveStages pins the recording rules: cache_lookup and observe on
// every request, evaluation stages only when rows missed the cache (and then
// even at zero duration — a slot that was free at once still counts a
// queue-wait observation), guard only when it ran.
func TestObserveStages(t *testing.T) {
	m := &Metrics{}
	cached := obs.StageTimings{Rows: 4, CacheHits: 4}
	cached.Ns[obs.StageCacheLookup] = 1000
	m.ObserveStages(&cached)
	if got := m.stages[obs.StageCacheLookup].Count(); got != 1 {
		t.Fatalf("cache_lookup count = %d, want 1", got)
	}
	if got := m.stages[obs.StageQueueWait].Count(); got != 0 {
		t.Fatalf("queue_wait recorded for a fully cached request: %d", got)
	}

	missed := obs.StageTimings{Rows: 4, CacheMisses: 4}
	missed.Ns[obs.StageQueueWait] = 0 // drained immediately: still observed
	missed.Ns[obs.StageEvaluate] = 50_000
	m.ObserveStages(&missed)
	if got := m.stages[obs.StageQueueWait].Count(); got != 1 {
		t.Fatalf("zero-duration queue wait not recorded: %d", got)
	}
	if got := m.stages[obs.StageGuard].Count(); got != 0 {
		t.Fatalf("guard recorded without running: %d", got)
	}
	missed.Ns[obs.StageGuard] = 10_000
	m.ObserveStages(&missed)
	if got := m.stages[obs.StageGuard].Count(); got != 1 {
		t.Fatalf("guard count = %d, want 1", got)
	}
}

// TestWriteTextDeterministicAndGauges: two consecutive scrapes of the same
// state render byte-identically (sorted per-system and per-shadow series,
// fixed stage order), and the evaluation-slot gauges appear only when wired.
func TestWriteTextDeterministicAndGauges(t *testing.T) {
	m := &Metrics{}
	// Touch systems and shadows in non-sorted order.
	m.System("theta").Requests.Add(2)
	m.System("cori").Requests.Add(1)
	m.Shadow(ShadowKey{"theta", 2, 1, RoleShadow}).observe(0.1, 1, true, false, 100)
	m.Shadow(ShadowKey{"cori", 2, 1, RoleShadow}).observe(0.2, 2, true, false, 100)
	var tm obs.StageTimings
	tm.CacheMisses = 1
	tm.Ns[obs.StageEvaluate] = 1000
	m.ObserveStages(&tm)

	render := func() string { return scrape(t, m) }
	first := render()
	if first != render() {
		t.Fatal("two scrapes of identical state differ")
	}
	if strings.Contains(first, "ioserve_batch_queue_depth") {
		t.Fatal("queue-depth gauge rendered without a wired QueueDepthFn")
	}
	// One stage family header, stages in pipeline order.
	if got := strings.Count(first, "# TYPE ioserve_stage_latency_seconds histogram"); got != 1 {
		t.Fatalf("stage family TYPE rendered %d times, want 1", got)
	}
	iCache := strings.Index(first, `ioserve_stage_latency_seconds_bucket{stage="cache_lookup"`)
	iEval := strings.Index(first, `ioserve_stage_latency_seconds_bucket{stage="evaluate"`)
	iObs := strings.Index(first, `ioserve_stage_latency_seconds_bucket{stage="observe"`)
	if iCache < 0 || iEval < 0 || iObs < 0 || !(iCache < iEval && iEval < iObs) {
		t.Fatalf("stage series out of pipeline order: cache=%d eval=%d observe=%d", iCache, iEval, iObs)
	}
	// Per-system series sorted: cori before theta.
	iCori := strings.Index(first, `ioserve_system_requests_total{system="cori"}`)
	iTheta := strings.Index(first, `ioserve_system_requests_total{system="theta"}`)
	if iCori < 0 || iTheta < 0 || iCori > iTheta {
		t.Fatalf("per-system series not sorted: cori=%d theta=%d", iCori, iTheta)
	}

	m.QueueDepthFn = func() int { return 3 }
	m.InflightWavesFn = func() int { return 1 }
	wired := render()
	for _, want := range []string{"ioserve_batch_queue_depth 3", "ioserve_batch_inflight_waves 1"} {
		if !strings.Contains(wired, want) {
			t.Errorf("wired gauges missing %q", want)
		}
	}
}

// TestRequestLatencyLabels pins the 15 le labels of the request latency
// histogram: the 50µs – 1s ladder in seconds, then +Inf.
func TestRequestLatencyLabels(t *testing.T) {
	body := scrape(t, &Metrics{})
	const prefix = `ioserve_request_latency_seconds_bucket{le="`
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			got = append(got, rest[:strings.IndexByte(rest, '"')])
		}
	}
	want := []string{"5e-05", "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005",
		"0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "+Inf"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("le labels = %v, want %v", got, want)
	}
}

// TestLatencyObserveAllocs pins the two histogram paths every request
// runs, traced or not, at zero allocations.
func TestLatencyObserveAllocs(t *testing.T) {
	m := &Metrics{}
	var tm obs.StageTimings
	tm.CacheMisses = 1
	tm.Ns[obs.StageEvaluate] = 60_000
	tm.Ns[obs.StageGuard] = 20_000
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		d += 37 * time.Microsecond
		m.Latency.Observe(d)
	}); n != 0 {
		t.Errorf("LatencyHist.Observe = %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.ObserveStages(&tm) }); n != 0 {
		t.Errorf("Metrics.ObserveStages = %v allocs, want 0", n)
	}
}

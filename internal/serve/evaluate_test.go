package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience/chaos"
)

// TestBatcherMatchesDirectEvaluation: with the cache off every row is
// evaluated, and each prediction is the model's own, guarded.
func TestBatcherMatchesDirectEvaluation(t *testing.T) {
	frame, _, v2 := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		row := frame.Row(i)
		res, _, err := svc.Predict(ctx, "theta", 2, [][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		want := v2.Model.Predict(row)
		if res[0].Log10Throughput != want {
			t.Fatalf("row %d: served %v != direct %v", i, res[0].Log10Throughput, want)
		}
		if res[0].Guard == (Guard{}) {
			t.Fatalf("row %d: no guard on guarded bundle", i)
		}
	}
}

// evalGate holds evaluations inside the chaos injector's latency hook, so
// "a caller holds its slot and is evaluating" and "it may go on" are events
// a test orders, never sleeps standing in for them.
type evalGate struct {
	entered, free chan struct{}
	opened        sync.Once
}

func newEvalGate() (*evalGate, *chaos.Injector) {
	g := &evalGate{entered: make(chan struct{}), free: make(chan struct{})}
	inj := chaos.NewInjector(chaos.Config{Latency: time.Millisecond, LatencyProb: 1}, 1)
	inj.Sleep = func(time.Duration) {
		select {
		case g.entered <- struct{}{}:
			<-g.free
		case <-g.free:
		}
	}
	return g, inj
}

// waitEntered returns once an evaluation is parked inside the gate.
func (g *evalGate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(20 * time.Second):
		t.Fatal("no evaluation entered the gate")
	}
}

// open lets this and every later evaluation through.
func (g *evalGate) open() { g.opened.Do(func() { close(g.free) }) }

// TestBatcherLoneWaveDoesNotWait: an idle service evaluates a single-row
// request at once, as an evaluation of that one row. The slot wait is a
// channel send; anything that waited would put it above the evaluation
// itself, so the quickest of a few is compared (one descheduled caller
// proves nothing). wave_assemble has no work left and stays 0.
func TestBatcherLoneWaveDoesNotWait(t *testing.T) {
	frame, _, v2 := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{Workers: 1})
	t.Cleanup(svc.Close)
	const n = 20
	minQueue, minEval := int64(math.MaxInt64), int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		rows := [][]float64{frame.Row(i)}
		res, _, tm, _, err := svc.PredictTraced(context.Background(), "theta", 2, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := v2.Model.Predict(rows[0]); res[0].Log10Throughput != want {
			t.Fatalf("row %d: predicted %v, want %v", i, res[0].Log10Throughput, want)
		}
		if tm.Ns[obs.StageWaveAssemble] != 0 {
			t.Fatalf("row %d: wave_assemble %d ns, want 0", i, tm.Ns[obs.StageWaveAssemble])
		}
		minQueue, minEval = min(minQueue, tm.Ns[obs.StageQueueWait]), min(minEval, tm.Ns[obs.StageEvaluate])
	}
	if minQueue > minEval {
		t.Errorf("lone requests waited at least %d ns for a slot against %d ns evaluating: something waited", minQueue, minEval)
	}
	if m := svc.Metrics(); m.Batches.Load() != n || m.BatchedRows.Load() != n {
		t.Errorf("%d evaluations of %d rows, want %d of one", m.Batches.Load(), m.BatchedRows.Load(), n)
	}
}

// TestBatcherWaveRoundTripAllocs: taking a slot and evaluating a request's
// misses allocates only what evaluating its rows does, and on a guarded
// bundle that is nothing: every Result carries its Guard by value.
func TestBatcherWaveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	frame, v1, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{Workers: 1})
	t.Cleanup(svc.Close)
	rows := frame.Rows()[:4]
	ctx := context.Background()
	sc := &evalScratch{rows: rows}
	var tm obs.StageTimings
	path := func() {
		if _, err := svc.evaluateMisses(ctx, v1, sc, &tm); err != nil {
			t.Fatal(err)
		}
	}
	s := &evalScratch{}
	evaluation := func() {
		if _, err := evaluateInto(v1, rows, s); err != nil {
			t.Fatal(err)
		}
	}
	path()
	evaluation()
	if slot, eval := testing.AllocsPerRun(200, path), testing.AllocsPerRun(200, evaluation); slot != eval || eval != 0 {
		t.Fatalf("a warm evaluation path allocates %.0f times, its evaluation alone %.0f, want 0 and 0", slot, eval)
	}
}

// TestFreeSlotMakesNoDoneChannel: a request whose context can be cancelled,
// as net/http's always can, takes a free slot without asking for the
// context's Done channel, which the context would make on the heap for it.
// A fresh context each run costs what making and cancelling it costs, and
// the path nothing more.
func TestFreeSlotMakesNoDoneChannel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	frame, v1, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{Workers: 1})
	t.Cleanup(svc.Close)
	sc := &evalScratch{rows: frame.Rows()[:4]}
	var tm obs.StageTimings
	var ctxErr error
	path := func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := svc.evaluateMisses(ctx, v1, sc, &tm); err != nil {
			t.Fatal(err)
		}
	}
	ctxAlone := func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctxErr = ctx.Err()
	}
	path()
	if slot, alone := testing.AllocsPerRun(200, path), testing.AllocsPerRun(200, ctxAlone); slot != alone || ctxErr != nil {
		t.Fatalf("taking a free slot under a cancellable context allocates %.0f times, the context alone %.0f", slot, alone)
	}
}

// TestEvaluateFlatMatchesReference pins the zero-allocation evaluation
// path against the reference computation it replaced: Model.PredictAll for
// the point prediction and per-row Ensemble.Predict + Diagnose for the
// guardrail, all bit-identical.
func TestEvaluateFlatMatchesReference(t *testing.T) {
	frame, v1, _ := fixture(t)
	rows := frame.Rows()[:137] // crosses the flat engine's chunk handling
	got, err := evaluate(v1, rows)
	if err != nil {
		t.Fatal(err)
	}
	wantLogs := v1.Model.PredictAll(rows)
	for i, row := range rows {
		if got[i].PredLog != wantLogs[i] {
			t.Fatalf("row %d: flat PredLog %v != reference %v", i, got[i].PredLog, wantLogs[i])
		}
		scaled := make([]float64, len(row))
		if err := v1.Scaler.TransformRow(row, scaled); err != nil {
			t.Fatal(err)
		}
		if ref := v1.Guard.Diagnose(v1.Ensemble.Predict(scaled)); got[i].Guard != ref {
			t.Fatalf("row %d: guard %+v != reference %+v", i, got[i].Guard, ref)
		}
	}
}

// TestEvaluateSteadyStateAllocs: with a warm scratch, evaluating an
// unguarded bundle must stay allocation-free (TestBatcherWaveRoundTripAllocs
// pins the guarded one).
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	frame, v1, _ := fixture(t)
	unguarded := v1.derive()
	unguarded.Ensemble = nil
	unguarded.Scaler = nil
	rows := frame.Rows()[:16]
	s := &evalScratch{}
	if _, err := evaluateInto(unguarded, rows, s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := evaluateInto(unguarded, rows, s); err != nil {
			t.Fatal(err)
		}
	})
	// The flat engine's chunk codes come from a sync.Pool, which may
	// occasionally refill after a GC; anything beyond that is a leak in
	// the zero-allocation contract.
	if allocs > 1 {
		t.Fatalf("steady-state evaluateInto allocates %.1f times per call, want <= 1", allocs)
	}
}

// TestBatcherClose: once Close has returned, a request with misses is
// refused with ErrBatcherClosed (a 503) and nothing is evaluated.
func TestBatcherClose(t *testing.T) {
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{})
	svc.Close()
	if _, _, err := svc.Predict(context.Background(), "theta", 0, [][]float64{frame.Row(0)}); !errors.Is(err, ErrBatcherClosed) {
		t.Errorf("predict after close: err = %v, want ErrBatcherClosed", err)
	}
	if got := svc.Metrics().Batches.Load(); got != 0 {
		t.Errorf("%d evaluations after close, want 0", got)
	}
}

// TestBatcherContextCancel: a request whose context has already ended gets
// its context error, and nothing is evaluated for it.
func TestBatcherContextCancel(t *testing.T) {
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := svc.Predict(ctx, "theta", 0, [][]float64{frame.Row(0)}); !errors.Is(err, context.Canceled) {
		t.Errorf("predict with a canceled context: err = %v, want context.Canceled", err)
	}
	if got := svc.Metrics().Batches.Load(); got != 0 {
		t.Errorf("%d evaluations for a canceled request, want 0", got)
	}
}

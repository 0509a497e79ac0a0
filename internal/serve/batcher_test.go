package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/resilience/chaos"
)

func TestBatcherMatchesDirectEvaluation(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	b := NewBatcher(8, 2, m)
	defer b.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		row := frame.Row(i)
		res, err := b.Submit(ctx, v2, row)
		if err != nil {
			t.Fatal(err)
		}
		want := v2.Model.Predict(row)
		if res.PredLog != want {
			t.Fatalf("row %d: batched %v != direct %v", i, res.PredLog, want)
		}
		if res.Guard.ErrorSource == "" {
			t.Fatalf("row %d: no guard on guarded bundle", i)
		}
	}
}

// evalGate holds a batcher's workers inside evaluation: the chaos
// injector's latency hook parks on it, so "the worker is evaluating" and
// "the worker may go on" are events a test orders, never sleeps standing in
// for them.
type evalGate struct {
	entered, release, free chan struct{}
}

func newEvalGate() (*evalGate, *chaos.Injector) {
	g := &evalGate{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	inj := chaos.NewInjector(chaos.Config{Latency: time.Millisecond, LatencyProb: 1}, 1)
	inj.Sleep = func(time.Duration) {
		select {
		case g.entered <- struct{}{}:
			select {
			case <-g.release:
			case <-g.free:
			}
		case <-g.free:
		}
	}
	return g, inj
}

// waitEntered returns once a worker is parked inside an evaluation.
func (g *evalGate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(20 * time.Second):
		t.Fatal("no worker entered evaluation")
	}
}

// step lets the parked evaluation finish; the next one parks again.
func (g *evalGate) step() { g.release <- struct{}{} }

// open lets this and every later evaluation through.
func (g *evalGate) open() { close(g.free) }

// TestBatcherCoalesces is the batching rule, stated exactly: a worker takes
// what is queued, up to maxBatch rows, and evaluates the moment the queue is
// empty. The single worker is held evaluating one wave while n-1 single-row
// waves queue behind it; on release they form one batch of min(n-1,
// maxBatch) rows, and what did not fit forms the next.
func TestBatcherCoalesces(t *testing.T) {
	frame, _, v2 := fixture(t)
	for _, tc := range []struct{ n, maxBatch int }{
		{2, 8},   // one partner
		{48, 64}, // every queued wave in one batch
		{9, 8},   // exactly maxBatch
		{12, 8},  // maxBatch, then the three that did not fit
	} {
		m := &Metrics{}
		g, inj := newEvalGate()
		b := newBatcher(tc.maxBatch, 1, m, inj)
		var wg sync.WaitGroup
		got := make([]Result, tc.n)
		errs := make([]error, tc.n)
		submit := func(i int) {
			defer wg.Done()
			got[i], errs[i] = b.Submit(context.Background(), v2, frame.Row(i))
		}
		wg.Add(1)
		go submit(0)
		g.waitEntered(t)
		for i := 1; i < tc.n; i++ {
			wg.Add(1)
			go submit(i)
		}
		batches, rows := uint64(1), uint64(1)
		for held, left := 1, tc.n-1; ; {
			// The worker is held, so the queue fills with exactly what the
			// next batch will take (to the brim when more is waiting).
			k := min(left, tc.maxBatch)
			waitFor(t, "the next batch to queue behind the held worker", func() bool {
				return b.QueueDepth() == k && b.InflightWaves() == held+k
			})
			g.step()
			if k == 0 {
				break
			}
			g.waitEntered(t)
			held, left = k, left-k
			batches, rows = batches+1, rows+uint64(k)
			if gb, gr := m.Batches.Load(), m.BatchedRows.Load(); gb != batches || gr != rows {
				t.Fatalf("n=%d maxBatch=%d: %d batches of %d rows so far, want %d of %d", tc.n, tc.maxBatch, gb, gr, batches, rows)
			}
		}
		g.open()
		wg.Wait()
		b.Close()
		for i, err := range errs {
			if err != nil {
				t.Fatal(i, err)
			}
			if want := v2.Model.Predict(frame.Row(i)); got[i].PredLog != want {
				t.Fatalf("n=%d row %d: batched %v != direct %v", tc.n, i, got[i].PredLog, want)
			}
		}
		if gb, gr := m.Batches.Load(), m.BatchedRows.Load(); gb != batches || gr != uint64(tc.n) {
			t.Errorf("n=%d maxBatch=%d: %d batches of %d rows, want %d of %d", tc.n, tc.maxBatch, gb, gr, batches, tc.n)
		}
	}
}

// TestBatcherMixedVersionsInOneBatch: two versions' waves queued behind a
// held worker ride one micro-batch and are evaluated per version.
func TestBatcherMixedVersionsInOneBatch(t *testing.T) {
	frame, v1, v2 := fixture(t)
	m := &Metrics{}
	g, inj := newEvalGate()
	b := newBatcher(32, 1, m, inj)
	defer b.Close()
	var wg sync.WaitGroup
	mvs := []*ModelVersion{v2, v1, v2}
	results := make([]Result, len(mvs))
	errs := make([]error, len(mvs))
	row := frame.Row(3)
	submit := func(i int) {
		defer wg.Done()
		results[i], errs[i] = b.Submit(context.Background(), mvs[i], row)
	}
	wg.Add(1)
	go submit(0)
	g.waitEntered(t)
	for i := 1; i < len(mvs); i++ {
		wg.Add(1)
		go submit(i)
	}
	waitFor(t, "both versions' waves to queue", func() bool { return b.QueueDepth() == 2 && b.InflightWaves() == 3 })
	g.open()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(i, err)
		}
		if results[i].PredLog != mvs[i].Model.Predict(row) {
			t.Errorf("wave %d: mixed-version batch routed the row to the wrong model", i)
		}
	}
	if gb, gr := m.Batches.Load(), m.BatchedRows.Load(); gb != 2 || gr != 3 {
		t.Errorf("%d batches of %d rows, want the held wave then one mixed batch (2 of 3)", gb, gr)
	}
}

// TestBatcherLoneWaveDoesNotWait: an idle batcher evaluates a lone
// single-row wave at once, as a batch of one. Assembly is the few
// instructions between pick-up and evaluation; a window of any kind would
// put it above the evaluation itself on every wave, so the quickest of a few
// is compared (one descheduled worker proves nothing).
func TestBatcherLoneWaveDoesNotWait(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	b := NewBatcher(8, 1, m)
	defer b.Close()
	const n = 20
	minAssemble, minEval := int64(math.MaxInt64), int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		rows := [][]float64{frame.Row(i)}
		res, wt, err := b.SubmitWave(context.Background(), v2, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := v2.Model.Predict(rows[0]); (*res)[0].PredLog != want {
			t.Fatalf("row %d: lone wave predicted %v, want %v", i, (*res)[0].PredLog, want)
		}
		putResults(res)
		minAssemble, minEval = min(minAssemble, wt.AssembleNs), min(minEval, wt.EvalNs)
	}
	if minAssemble > minEval {
		t.Errorf("lone waves spent at least %d ns assembling against %d ns evaluating: something waited", minAssemble, minEval)
	}
	if gb, gr := m.Batches.Load(), m.BatchedRows.Load(); gb != n || gr != n {
		t.Errorf("%d batches of %d rows, want %d batches of one", gb, gr, n)
	}
}

// TestBatcherWaveRoundTripAllocs: against a warm batcher a wave's round
// trip — request and its row headers, response channel, result slice and
// its holder, the worker's flush — allocates nothing, and neither does
// evaluating its rows on a guarded bundle: every Result carries its Guard
// by value.
func TestBatcherWaveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	frame, v1, _ := fixture(t)
	b := NewBatcher(8, 1, nil)
	defer b.Close()
	rows := frame.Rows()[:4]
	ctx := context.Background()
	roundTrip := func() {
		res, _, err := b.SubmitWave(ctx, v1, rows)
		if err != nil {
			t.Fatal(err)
		}
		putResults(res)
	}
	s := &evalScratch{}
	evaluation := func() {
		if _, err := evaluateInto(v1, rows, s); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	evaluation()
	if wave, eval := testing.AllocsPerRun(200, roundTrip), testing.AllocsPerRun(200, evaluation); wave != 0 || eval != 0 {
		t.Fatalf("a steady-state wave round trip allocates %.0f times, its evaluation alone %.0f, want 0 and 0", wave, eval)
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

// TestBatcherWaveOwnsItsRowHeaders: a submitter whose context ends while its
// wave waits behind another group of the same micro-batch gets its header
// slice back at once and may reuse it; the worker that still evaluates the
// abandoned wave must read the rows as submitted. The held worker lets a v2
// wave and the test's v1 wave queue into one batch; the v2 group parks in
// evaluation, the v1 submitter is cancelled and overwrites its headers with
// nil, and only then does the v1 group gather its rows. A nil row would
// panic the evaluation.
func TestBatcherWaveOwnsItsRowHeaders(t *testing.T) {
	frame, v1, v2 := fixture(t)
	m := &Metrics{}
	g, inj := newEvalGate()
	b := newBatcher(32, 1, m, inj)
	defer b.Close()
	var wg sync.WaitGroup
	submit := func(ctx context.Context, mv *ModelVersion, rows [][]float64) {
		defer wg.Done()
		res, _, err := b.SubmitWave(ctx, mv, rows)
		if err == nil {
			putResults(res)
		} else if ctx.Err() == nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go submit(context.Background(), v2, frame.Rows()[:1])
	g.waitEntered(t)
	go submit(context.Background(), v2, frame.Rows()[1:2])
	waitFor(t, "the v2 wave to queue", func() bool { return b.QueueDepth() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	rows := [][]float64{frame.Row(2), frame.Row(3)}
	abandoned := make(chan struct{})
	wg.Add(1)
	go func() {
		submit(ctx, v1, rows)
		close(abandoned)
	}()
	waitFor(t, "the v1 wave to queue", func() bool { return b.QueueDepth() == 2 && b.InflightWaves() == 3 })
	g.step()
	g.waitEntered(t) // the v2 group of the two-version batch
	cancel()
	<-abandoned
	for i := range rows {
		rows[i] = nil
	}
	g.open()
	wg.Wait()
	waitFor(t, "the abandoned wave to be answered", func() bool { return b.InflightWaves() == 0 })
	if p, e := m.PanicsRecovered.Load(), m.Errors.Load(); p != 0 || e != 0 {
		t.Fatalf("the abandoned wave's evaluation failed (%d panics, %d errors): it read the caller's reused headers", p, e)
	}
	if gb, gr := m.Batches.Load(), m.BatchedRows.Load(); gb != 2 || gr != 4 {
		t.Errorf("%d batches of %d rows, want the held wave then one batch of both versions (2 of 4)", gb, gr)
	}
}

func TestBatcherClose(t *testing.T) {
	_, _, v2 := fixture(t)
	b := NewBatcher(4, 1, nil)
	b.Close()
	if _, err := b.Submit(context.Background(), v2, make([]float64, len(v2.Columns))); err == nil {
		t.Error("submit after close succeeded")
	}
}

func TestBatcherContextCancel(t *testing.T) {
	_, _, v2 := fixture(t)
	b := NewBatcher(4, 1, nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, v2, make([]float64, len(v2.Columns))); err == nil {
		t.Error("submit with canceled context succeeded")
	}
}

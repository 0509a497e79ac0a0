package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/uq"
)

// Evaluation of a request's cache misses. A predict call evaluates its own
// misses on its own goroutine once it holds one of Options.Workers slots:
// the slots bound how many evaluations run at once, and nothing is shared
// or coalesced across requests. The scheduler or tuner asking about a job
// waits for its answer, so a request's misses are one evaluation. (The
// micro-batching queue that stood here formed one-request batches at every
// load it was measured at; CHANGES.md has the numbers.)

// ErrBatcherClosed is returned for evaluations requested after Close.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// ErrEvalPanic wraps a panic recovered during an evaluation: the request
// failed, the process survived. Mapped to 5xx statuses by the HTTP layer (a
// server fault, not a client one).
var ErrEvalPanic = errors.New("serve: evaluation panicked")

// Result is one model evaluation in log10 space, with its guardrail
// annotation (zero when the bundle has no ensemble).
type Result struct {
	PredLog float64
	Guard   Guard
}

// evaluateMisses evaluates the rows in sc.rows (one request's misses)
// against mv, once the caller holds an evaluation slot. The results are
// owned by sc and valid until its next use. Its stages go into tm only on
// success: queue_wait is the wait for a slot; wave_assemble stays 0.
//
// A context that ends while the caller waits for a slot returns ctx.Err(),
// is counted in DeadlineDropped, and evaluates nothing. One that ends during
// the evaluation also fails with ctx.Err(), once the evaluation, which is
// bounded, is over; its results are not cached.
func (s *Service) evaluateMisses(ctx context.Context, mv *ModelVersion, sc *evalScratch, tm *obs.StageTimings) ([]Result, error) {
	start := time.Now()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	// A free slot is taken without a select on ctx.Done(), which would have
	// net/http's request context make its channel for every request.
	select {
	case s.slots <- struct{}{}:
	default:
		s.waiting.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			s.metrics.DeadlineDropped.Add(1)
			return nil, ctx.Err()
		case <-s.closed:
			s.waiting.Add(-1)
			return nil, ErrBatcherClosed
		}
	}
	defer func() { <-s.slots }()
	evalStart := time.Now()
	if err := ctx.Err(); err != nil {
		s.metrics.DeadlineDropped.Add(1)
		return nil, err
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchedRows.Add(uint64(len(sc.rows)))
	results, err := s.evaluateContained(mv, sc)
	if err != nil {
		s.metrics.Errors.Add(1)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tm.Add(obs.StageQueueWait, evalStart.Sub(start).Nanoseconds())
	tm.Add(obs.StageEvaluate, time.Since(evalStart).Nanoseconds())
	tm.Add(obs.StageGuard, sc.guardNs)
	return results, nil
}

// evaluateContained runs one evaluation with panic isolation and the chaos
// hooks: a panic anywhere in model evaluation (or injected by the chaos
// harness) is recovered, counted, and converted into the request's error.
// The chaos hooks run inside the recovered region so injected panics
// exercise exactly the production containment path.
func (s *Service) evaluateContained(mv *ModelVersion, sc *evalScratch) (results []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.PanicsRecovered.Add(1)
			results, err = nil, fmt.Errorf("%w: %s v%d: %v", ErrEvalPanic, mv.System, mv.Version, r)
		}
	}()
	if s.chaos != nil {
		s.chaos.EvalDelay()
		s.chaos.EvalPanic()
		if cerr := s.chaos.EvalError(); cerr != nil {
			return nil, cerr
		}
	}
	return evaluateInto(mv, sc.rows, sc)
}

// evalScratch holds the reusable buffers of one evaluation: the row headers
// of a request's misses, the prediction vector, the scaled feature block the
// guardrail ensemble reads (one flat backing array), the ensemble scratch,
// and the result slice whose values the caller copies out. Pooled via
// evalScratchPool so concurrent callers and the shadow mirror share warm
// buffers without contention.
type evalScratch struct {
	// rows are the headers of a predict call's miss rows; release clears
	// them so an idle scratch pins no row.
	rows      [][]float64
	predLogs  []float64
	scaledBuf []float64
	scaled    [][]float64
	preds     []uq.Prediction
	results   []Result
	// guardNs is the guardrail slice of the last evaluateInto call's wall
	// time (0 for unguarded bundles), read for stage attribution.
	guardNs int64
	uq      uq.BatchScratch
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// release clears the miss rows and returns the scratch to its pool.
func (s *evalScratch) release() {
	clear(s.rows)
	s.rows = s.rows[:0]
	evalScratchPool.Put(s)
}

// evaluate runs one model version over rows with internally pooled scratch,
// returning results safe to retain. The shadow mirror's entry point; the
// predict path uses evaluateMisses.
func evaluate(mv *ModelVersion, rows [][]float64) ([]Result, error) {
	s := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(s)
	results, err := evaluateInto(mv, rows, s)
	if err != nil {
		return nil, err
	}
	return append([]Result(nil), results...), nil
}

// evaluateInto runs one model version over rows: the GBT point
// prediction on the bundle's compiled flat engine plus, when the bundle is
// guarded, the deep ensemble's decomposed uncertainty (members in line on
// this goroutine for anything a request holds; uq.PredictBatchInto) and its
// taxonomy diagnosis. A guarded bundle that cannot produce its guard (scaler
// mismatch) fails the whole evaluation rather than silently serving
// unguarded predictions.
//
// The returned slice is owned by s and valid until its next use; callers
// must copy the Result values out before reusing s. Each Result carries its
// Guard by value, so nothing the call writes outlives s.
func evaluateInto(mv *ModelVersion, rows [][]float64, s *evalScratch) ([]Result, error) {
	n := len(rows)
	if cap(s.predLogs) < n {
		s.predLogs = make([]float64, n)
	}
	predLogs := s.predLogs[:n]
	mv.Flat().PredictAllInto(rows, predLogs)
	if cap(s.results) < n {
		s.results = make([]Result, n)
	}
	results := s.results[:n]
	for i, p := range predLogs {
		results[i] = Result{PredLog: p}
	}
	s.guardNs = 0
	if mv.Ensemble != nil {
		guardStart := time.Now()
		nf := len(mv.Columns)
		if cap(s.scaledBuf) < n*nf {
			s.scaledBuf = make([]float64, n*nf)
		}
		if cap(s.scaled) < n {
			s.scaled = make([][]float64, n)
		}
		scaled := s.scaled[:n]
		for i, row := range rows {
			dst := s.scaledBuf[i*nf : (i+1)*nf]
			if err := mv.Scaler.TransformRow(row, dst); err != nil {
				return nil, fmt.Errorf("serve: model %s v%d: guardrail scaling failed: %w", mv.System, mv.Version, err)
			}
			scaled[i] = dst
		}
		if cap(s.preds) < n {
			s.preds = make([]uq.Prediction, n)
		}
		preds := s.preds[:n]
		mv.Ensemble.PredictBatchInto(scaled, preds, &s.uq)
		for i := range preds {
			results[i].Guard = mv.Guard.Diagnose(preds[i])
		}
		s.guardNs = time.Since(guardStart).Nanoseconds()
	}
	return results, nil
}

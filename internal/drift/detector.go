package drift

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"iotaxo/internal/dataset"
	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// Detector state. Each monitored system accumulates two live windows
// between ticks:
//
//   - the *traffic* window: per-feature bin counts of every row the active
//     version served, binned against the training-time reference
//     histograms carried by the bundle (serve.FeatureHist). Closed by
//     Tick, it yields per-feature PSI and KS.
//   - the *feedback* window: delayed ground truth posted to /v1/feedback.
//     Each feedback row is predicted by the active version (and, while a
//     candidate is staged or a fresh promotion is watched, by the
//     comparison version) so the window yields rolling MAE(log) for both
//     sides of the champion/challenger pair. Feedback rows also fill the
//     retraining window.
//
// Error alone never alarms below the noise floor: the taxonomy's litmus
// test 4 bounds what a perfect model could achieve, so the detector
// requires MAE > ErrorFactor × NoiseExplainedMAE(sigma) before counting a
// window as an error breach.

// FeatureDrift is one feature's latest window statistics.
type FeatureDrift struct {
	Feature string  `json:"feature"`
	PSI     float64 `json:"psi"`
	KS      float64 `json:"ks"`
}

// errAccum accumulates absolute log-errors for one window.
type errAccum struct {
	sum float64
	n   int
}

func (a *errAccum) add(absLog float64) { a.sum += absLog; a.n++ }
func (a *errAccum) mae() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}
func (a *errAccum) reset() { a.sum, a.n = 0, 0 }

// systemState is one system's monitor, guarded by its own mutex so the
// predict-path observer never contends with another system's tick.
type systemState struct {
	mu     sync.Mutex
	system string

	// Reference binning: histograms from the bundle refVersion, refCols
	// mapping each histogram to its column index in that bundle's schema.
	refVersion int
	ref        []serve.FeatureHist
	refCols    []int
	counts     [][]uint64 // live bin counts, current window, per ref feature

	// Current-window accumulators.
	rowsObserved uint64
	actErr       errAccum // active version vs feedback ground truth
	cmpErr       errAccum // comparison version (staged candidate / watch prev)
	// compareVersion is the version Feedback additionally evaluates.
	compareVersion int

	// feedback is the retraining window: the newest RetrainWindow rows.
	feedback *obs.Ring[feedbackRow]

	// Lifecycle.
	phase      string
	cooldown   int // windows to sit out after a failed retrain/decision
	staged     int // candidate version published by the orchestrator
	stageLeft  int // evaluation-window budget for the staged candidate
	watchPrev  int // predecessor a fresh promotion is compared against
	watchLeft  int
	lastActive int
	rejected   map[int]bool // versions auto-rolled-back; never re-promoted

	// Streaks across consecutive closed windows.
	psiStreak, errStreak       int
	cleanStreak, regressStreak int

	// Latest closed-window results, for status and metrics.
	windowsTotal  uint64
	feedbackTotal uint64
	observedTotal uint64
	lastDrift     []FeatureDrift
	psiMax, ksMax float64
	psiMaxFeature string
	lastErrMAE    float64
	lastNoiseMAE  float64
	lastShadow    map[serve.ShadowKey]serve.ShadowSnapshot

	// Counters surfaced at /metrics.
	signals  map[string]uint64 // kind -> count ("psi", "error")
	retrains map[string]uint64 // outcome -> count ("started", "published", "sigma_carried", "failed", "skipped", "suppressed")
	actions  map[string]uint64 // decision action -> count
}

func newSystemState(system string, cfg Config) *systemState {
	return &systemState{
		system:     system,
		phase:      PhaseStable,
		feedback:   obs.NewRing[feedbackRow](cfg.RetrainWindow),
		rejected:   make(map[int]bool),
		signals:    make(map[string]uint64),
		retrains:   make(map[string]uint64),
		actions:    make(map[string]uint64),
		lastShadow: make(map[serve.ShadowKey]serve.ShadowSnapshot),
	}
}

func sortStates(states []*systemState) {
	sort.Slice(states, func(a, b int) bool { return states[a].system < states[b].system })
}

// feedbackRow is one entry of the retraining window: a feedback row (a
// copy), its measured throughput, and the job's start and app as the
// noise estimators read them.
type feedbackRow struct {
	row  []float64
	y    float64
	meta dataset.Meta
}

// setReference swaps the binning reference to a bundle's histograms and
// resets the traffic window and detector streaks — statistics against the
// old reference say nothing about the new one. Caller holds mu.
func (st *systemState) setReference(mv *serve.ModelVersion) {
	st.refVersion = 0
	st.ref = nil
	st.refCols = nil
	st.counts = nil
	st.resetWindow()
	st.psiStreak, st.errStreak = 0, 0
	if mv == nil || len(mv.Reference) == 0 {
		return
	}
	colIdx := make(map[string]int, len(mv.Columns))
	for i, c := range mv.Columns {
		colIdx[c] = i
	}
	st.refVersion = mv.Version
	st.ref = mv.Reference
	st.refCols = make([]int, len(mv.Reference))
	st.counts = make([][]uint64, len(mv.Reference))
	for i := range mv.Reference {
		st.refCols[i] = colIdx[mv.Reference[i].Name]
		st.counts[i] = make([]uint64, mv.Reference[i].NumBins())
	}
}

// resetWindow zeroes the current window accumulators. Caller holds mu.
func (st *systemState) resetWindow() {
	for _, c := range st.counts {
		for b := range c {
			c[b] = 0
		}
	}
	st.rowsObserved = 0
	st.actErr.reset()
	st.cmpErr.reset()
}

// ObserveServed implements serve.Observer: it bins every row served by
// the version the detector is referenced against. Cost is one binary
// search over <= 9 cut points per feature per row, under the system's own
// mutex — cheap enough for the synchronous predict path.
func (c *Controller) ObserveServed(mv *serve.ModelVersion, rows [][]float64, _ []serve.PredictionResult) {
	st := c.state(mv.System)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.refVersion == 0 {
		// First traffic for this system: adopt the serving bundle's
		// reference if it is the active version.
		if av, err := c.svc.Registry().ActiveVersion(mv.System); err != nil || av != mv.Version {
			return
		}
		st.lastActive = mv.Version
		st.setReference(mv)
		if st.refVersion == 0 {
			return
		}
	}
	if mv.Version != st.refVersion {
		return
	}
	for _, row := range rows {
		for i := range st.ref {
			st.counts[i][st.ref[i].BinIndex(row[st.refCols[i]])]++
		}
	}
	st.rowsObserved += uint64(len(rows))
	st.observedTotal += uint64(len(rows))
}

// FeedbackResult summarizes one feedback batch.
type FeedbackResult struct {
	System string `json:"system"`
	Count  int    `json:"count"`
	// ActiveVersion / ActiveMAELog report the serving model's error on
	// this batch; CompareVersion / CompareMAELog the challenger's (the
	// staged candidate or the watched predecessor), when one is under
	// evaluation.
	ActiveVersion  int     `json:"active_version"`
	ActiveMAELog   float64 `json:"active_mae_log"`
	CompareVersion int     `json:"compare_version,omitempty"`
	CompareMAELog  float64 `json:"compare_mae_log,omitempty"`
	// BufferRows is the retraining window's fill after this batch.
	BufferRows int `json:"buffer_rows"`
}

// maxAppLen bounds a feedback row's app name: the window keeps up to
// RetrainWindow of them.
const maxAppLen = 256

// Feedback ingests delayed ground truth: the actual throughput (bytes/s,
// > 0) measured for jobs whose features were previously (or are now)
// predicted, optionally with each job's start time and app. Each row is
// evaluated by the active version — and by the comparison version while
// one is staged or watched — and joins the retraining window. Evaluation
// goes through the quiet predict path: scoring feedback must not read as
// live traffic (no serving metrics, no shadow mirroring, no traffic-window
// counts), or backfilled ground truth alone could fabricate a drift signal.
func (c *Controller) Feedback(ctx context.Context, req FeedbackRequest) (FeedbackResult, error) {
	system, rows, actual := req.System, req.Rows, req.Actual
	if len(rows) == 0 || len(rows) != len(actual) {
		return FeedbackResult{}, fmt.Errorf("drift: feedback needs equal, non-empty rows and actuals (got %d rows, %d actuals)", len(rows), len(actual))
	}
	if (req.Start != nil && len(req.Start) != len(rows)) || (req.App != nil && len(req.App) != len(rows)) {
		return FeedbackResult{}, fmt.Errorf("drift: feedback start and app must be absent or one per row (got %d rows, %d starts, %d apps)", len(rows), len(req.Start), len(req.App))
	}
	metas := make([]dataset.Meta, len(rows))
	for i, a := range actual {
		if !(a > 0) || math.IsInf(a, 0) {
			return FeedbackResult{}, fmt.Errorf("drift: feedback actual %d must be a positive finite throughput, got %v", i, a)
		}
		if req.Start != nil {
			if s := req.Start[i]; !(s > 0) || math.IsInf(s, 0) {
				return FeedbackResult{}, fmt.Errorf("drift: feedback start %d must be a positive finite unix time, got %v", i, s)
			}
			metas[i].Start = req.Start[i]
		}
		if req.App != nil {
			if len(req.App[i]) > maxAppLen {
				return FeedbackResult{}, fmt.Errorf("drift: feedback app %d is %d bytes, limit %d", i, len(req.App[i]), maxAppLen)
			}
			metas[i].App = req.App[i]
		}
	}
	results, mv, err := c.svc.PredictQuiet(ctx, system, 0, rows)
	if err != nil {
		return FeedbackResult{}, err
	}
	st := c.state(system)
	st.mu.Lock()
	cmpVersion := st.compareVersion
	st.mu.Unlock()

	var cmpResults []serve.PredictionResult
	if cmpVersion > 0 && cmpVersion != mv.Version {
		// The challenger may have been retired by a reload mid-flight;
		// that only skips its side of the comparison.
		if res, _, err := c.svc.PredictQuiet(ctx, system, cmpVersion, rows); err == nil {
			cmpResults = res
		}
	}

	out := FeedbackResult{System: system, Count: len(rows), ActiveVersion: mv.Version}
	st.mu.Lock()
	defer st.mu.Unlock()
	var actSum, cmpSum float64
	for i := range rows {
		yLog := math.Log10(actual[i])
		actAbs := math.Abs(results[i].Log10Throughput - yLog)
		st.actErr.add(actAbs)
		actSum += actAbs
		if cmpResults != nil {
			cmpAbs := math.Abs(cmpResults[i].Log10Throughput - yLog)
			st.cmpErr.add(cmpAbs)
			cmpSum += cmpAbs
		}
		st.feedback.Push(&feedbackRow{row: append([]float64(nil), rows[i]...), y: actual[i], meta: metas[i]})
	}
	st.feedbackTotal += uint64(len(rows))
	out.ActiveMAELog = actSum / float64(len(rows))
	if cmpResults != nil {
		out.CompareVersion = cmpVersion
		out.CompareMAELog = cmpSum / float64(len(rows))
	}
	out.BufferRows = st.feedback.Len()
	return out, nil
}

// windowReport is one closed window's detector output.
type windowReport struct {
	evaluated bool
	// Traffic-shift side.
	psiMax, ksMax float64
	psiMaxFeature string
	shiftBreach   bool
	// Error side.
	actMAE, cmpMAE float64
	actN, cmpN     int
	noiseMAE       float64
	errBreach      bool
}

// closeWindow evaluates and resets the current window. Caller holds mu.
// Returns evaluated=false when the window had too few rows to judge.
func (st *systemState) closeWindow(cfg Config, guard serve.GuardConfig) windowReport {
	var rep windowReport
	if st.rowsObserved < uint64(cfg.MinWindowRows) {
		return rep
	}
	rep.evaluated = true
	// Per-feature statistics are reported bias-adjusted: the raw PSI/KS
	// minus what same-distribution sampling noise alone would produce at
	// these sample sizes, clamped at zero — so a quiet system reads ~0
	// regardless of window size, and the thresholds measure real shift.
	drifts := make([]FeatureDrift, len(st.ref))
	for i := range st.ref {
		refTotal, liveTotal := st.ref[i].Total(), total(st.counts[i])
		d := FeatureDrift{
			Feature: st.ref[i].Name,
			PSI:     math.Max(0, PSI(st.ref[i].Counts, st.counts[i])-PSINullBias(st.ref[i].NumBins(), refTotal, liveTotal)),
			KS:      math.Max(0, KS(st.ref[i].Counts, st.counts[i])-KSNullCritical(refTotal, liveTotal)),
		}
		drifts[i] = d
		if d.PSI > rep.psiMax {
			rep.psiMax, rep.psiMaxFeature = d.PSI, d.Feature
		}
		if d.KS > rep.ksMax {
			rep.ksMax = d.KS
		}
	}
	sort.Slice(drifts, func(a, b int) bool { return drifts[a].PSI > drifts[b].PSI })
	rep.shiftBreach = rep.psiMax >= cfg.PSIThreshold || rep.ksMax >= cfg.KSThreshold

	rep.actMAE, rep.actN = st.actErr.mae(), st.actErr.n
	rep.cmpMAE, rep.cmpN = st.cmpErr.mae(), st.cmpErr.n
	rep.noiseMAE = NoiseExplainedMAE(guard.NoiseSigmaLog)
	if rep.actN >= cfg.MinFeedbackRows {
		bar := cfg.ErrorMAEFallback
		if rep.noiseMAE > 0 {
			bar = cfg.ErrorFactor * rep.noiseMAE
		}
		rep.errBreach = rep.actMAE > bar
	}

	// Record for status/metrics, then reset.
	st.windowsTotal++
	st.lastDrift = drifts
	st.psiMax, st.ksMax, st.psiMaxFeature = rep.psiMax, rep.ksMax, rep.psiMaxFeature
	st.lastErrMAE, st.lastNoiseMAE = rep.actMAE, rep.noiseMAE
	st.resetWindow()
	return rep
}

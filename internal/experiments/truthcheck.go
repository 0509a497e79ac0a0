package experiments

import (
	"fmt"
	"io"
	"math"

	"iotaxo/internal/core"
	"iotaxo/internal/dataset"
	"iotaxo/internal/report"
	"iotaxo/internal/stats"
)

// TruthCheckResult validates the taxonomy's estimates against the
// simulator's injected ground truth — the validation the paper could not
// run on production logs, and the reason this reproduction generates data
// from the paper's own Eq. 3 decomposition.
type TruthCheckResult struct {
	// NoiseTrue is the injected median |noise| contribution (percent);
	// NoiseEstimated is litmus test 4's floor.
	NoiseTrue      float64
	NoiseEstimated float64
	// SigmaTrue is the noise sigma implied by the generator config
	// (weighted by per-app sensitivity); SigmaEstimated is LT4's
	// Bessel-corrected estimate.
	SigmaTrue      float64
	SigmaEstimated float64
	// SystemTrue is the median |global| component; SystemEstimated is the
	// golden-model improvement measured by the framework protocol
	// (tuned − golden medians).
	SystemTrue      float64
	SystemEstimated float64
	// FloorTrue is the irreducible median error of the TRUE fa predictor
	// (the best any application-only model could do); FloorEstimated is
	// litmus test 1's duplicate floor.
	FloorTrue      float64
	FloorEstimated float64
	// OoDTruthFrac is the injected OoD share; litmus test 3's flags are
	// validated in Fig5/T2 and not repeated here.
	OoDTruthFrac float64
}

// TruthCheck computes injected-vs-estimated quantities on a frame that
// carries ground truth (simulator output; fails on CSV round-trips, which
// drop it).
func TruthCheck(f *dataset.Frame, sc Scale) (*TruthCheckResult, error) {
	if f.Len() == 0 || f.Meta(0).Truth == nil {
		return nil, fmt.Errorf("experiments: frame carries no ground truth")
	}
	res := &TruthCheckResult{}

	// Injected component magnitudes.
	var noiseAbs, sysAbs, residAbs []float64
	var noiseSq float64
	ood := 0
	for i := 0; i < f.Len(); i++ {
		tr := f.Meta(i).Truth
		noiseAbs = append(noiseAbs, math.Abs(tr.Noise))
		sysAbs = append(sysAbs, math.Abs(tr.Global))
		// The true-fa predictor errs by the full system+noise residual.
		residAbs = append(residAbs, math.Abs(tr.Global+tr.Contention+tr.Noise))
		noiseSq += tr.Noise*tr.Noise + tr.Contention*tr.Contention
		if f.Meta(i).OoD {
			ood++
		}
	}
	res.NoiseTrue = stats.PctFromLog(stats.Median(noiseAbs))
	res.SystemTrue = stats.PctFromLog(stats.Median(sysAbs))
	res.FloorTrue = stats.PctFromLog(stats.Median(residAbs))
	res.SigmaTrue = math.Sqrt(noiseSq / float64(f.Len()))
	res.OoDTruthFrac = float64(ood) / float64(f.Len())

	// Litmus-test estimates.
	w, err := core.EstimateWindow(f, nil, nil, 1)
	if err != nil {
		return nil, err
	}
	res.FloorEstimated = w.Floor.FloorPct
	res.NoiseEstimated = w.Noise.FloorPct
	res.SigmaEstimated = w.Noise.SigmaLog

	// System-modeling estimate via the golden-model protocol.
	app, err := appFrame(f)
	if err != nil {
		return nil, err
	}
	tunedModel, tunedSplit, err := trainOn(sc, app)
	if err != nil {
		return nil, err
	}
	timeFrame, err := withColumn(f, "cobalt_start_time")
	if err != nil {
		return nil, err
	}
	goldenModel, goldenSplit, err := trainOn(sc, timeFrame)
	if err != nil {
		return nil, err
	}
	tuned := core.Evaluate(tunedModel, tunedSplit.Test).MedianAbsPct
	golden := core.Evaluate(goldenModel, goldenSplit.Test).MedianAbsPct
	res.SystemEstimated = tuned - golden
	return res, nil
}

// Render prints the injected-vs-estimated table.
func (r *TruthCheckResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Truth check: litmus-test estimates vs injected ground truth"); err != nil {
		return err
	}
	tb := report.NewTable("quantity", "injected", "estimated", "ratio")
	row := func(name string, truth, est float64) {
		ratio := "n/a"
		if truth > 0 {
			ratio = fmt.Sprintf("%.2f", est/truth)
		}
		tb.AddRow(name, report.Pct(truth), report.Pct(est), ratio)
	}
	row("noise floor (median)", r.NoiseTrue, r.NoiseEstimated)
	tb.AddRow("noise sigma (log10)",
		fmt.Sprintf("%.4f", r.SigmaTrue), fmt.Sprintf("%.4f", r.SigmaEstimated),
		fmt.Sprintf("%.2f", safeRatio(r.SigmaEstimated, r.SigmaTrue)))
	row("system impact (median)", r.SystemTrue, r.SystemEstimated)
	row("app-only error floor", r.FloorTrue, r.FloorEstimated)
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  injected OoD share: %.2f%% of jobs\n", 100*r.OoDTruthFrac)
	return err
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

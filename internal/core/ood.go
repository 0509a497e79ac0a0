package core

import (
	"fmt"
	"math"

	"iotaxo/internal/stats"
	"iotaxo/internal/uq"
)

// OoDReport is the result of litmus test 3 (Sec. VIII): how much of a
// model's error is carried by out-of-distribution jobs, identified by the
// epistemic-uncertainty threshold of a deep ensemble.
type OoDReport struct {
	// Threshold is the EU (standard deviation) cutoff used.
	Threshold float64
	// NumOoD / FracOoD count flagged jobs (the paper: 0.7% on Theta).
	NumOoD  int
	FracOoD float64
	// ErrShare is the fraction of total absolute log error carried by the
	// flagged jobs (the paper: 2.4% on Theta, 2.1% on Cori).
	ErrShare float64
	// ErrRatio is mean error of flagged jobs over mean error of the rest
	// (the paper: ~3x).
	ErrRatio float64
	// Flags marks every row's classification, aligned with the frame.
	Flags []bool

	// Validation against injected ground truth (only available on
	// simulated data; zero-valued otherwise).
	TruthPrecision float64
	TruthRecall    float64
}

// AttributeOoD runs litmus test 3 given ensemble predictions and the
// per-row absolute log errors of the model under study. When threshold is
// <= 0, a stable threshold is chosen from the shoulder of the inverse
// cumulative error curve. truthOoD may be nil; when present, precision and
// recall against it are reported.
func AttributeOoD(preds []uq.Prediction, absErrs []float64, threshold float64, truthOoD []bool) (OoDReport, error) {
	if len(preds) != len(absErrs) {
		return OoDReport{}, fmt.Errorf("core: %d predictions vs %d errors", len(preds), len(absErrs))
	}
	if len(preds) == 0 {
		return OoDReport{}, fmt.Errorf("core: no predictions to attribute")
	}
	if truthOoD != nil && len(truthOoD) != len(preds) {
		return OoDReport{}, fmt.Errorf("core: truth flags length mismatch")
	}
	threshold, flags := flagOoD(preds, absErrs, threshold, preds)
	rep := errorShare(absErrs, flags)
	rep.Threshold = threshold
	if truthOoD != nil {
		var tp, fp, fn float64
		for i, flagged := range rep.Flags {
			switch {
			case flagged && truthOoD[i]:
				tp++
			case flagged && !truthOoD[i]:
				fp++
			case !flagged && truthOoD[i]:
				fn++
			}
		}
		if tp+fp > 0 {
			rep.TruthPrecision = tp / (tp + fp)
		}
		if tp+fn > 0 {
			rep.TruthRecall = tp / (tp + fn)
		}
	}
	return rep, nil
}

// flagOoD is litmus test 3's threshold-and-flag rule: a threshold <= 0 is
// picked by uq.StableThreshold from the calibration predictions and their
// absolute errors, and the rows predicted with an EU above it are flagged.
func flagOoD(preds []uq.Prediction, absErrs []float64, threshold float64, rows []uq.Prediction) (float64, []bool) {
	if threshold <= 0 {
		threshold = uq.StableThreshold(preds, absErrs)
	}
	return threshold, uq.ClassifyOoD(rows, threshold)
}

// errorShare counts the flagged rows and the share of the rows' total
// absolute log error they carry.
func errorShare(absErrs []float64, flags []bool) OoDReport {
	rep := OoDReport{Flags: flags}
	var oodErr, totalErr float64
	for i, e := range absErrs {
		totalErr += e
		if flags[i] {
			oodErr += e
			rep.NumOoD++
		}
	}
	rep.FracOoD = float64(rep.NumOoD) / float64(len(absErrs))
	if totalErr > 0 {
		rep.ErrShare = oodErr / totalErr
	}
	if rep.NumOoD > 0 && rep.NumOoD < len(absErrs) {
		meanOoD := oodErr / float64(rep.NumOoD)
		meanRest := (totalErr - oodErr) / float64(len(absErrs)-rep.NumOoD)
		if meanRest > 0 {
			rep.ErrRatio = meanOoD / meanRest
		}
	}
	return rep
}

// UncertaintySummary aggregates the AU/EU landscape of a test set for the
// Fig 5 reproduction: marginal distributions and the inverse cumulative
// error shares along each axis.
type UncertaintySummary struct {
	// AU and EU are standard deviations per sample.
	AU []float64
	EU []float64
	// MedianAU / MedianEU locate the bulk (the paper: AU >> EU, AU floor
	// around 0.05 on both systems).
	MedianAU float64
	MedianEU float64
	// ShareBelowEU answers "what fraction of total error comes from jobs
	// with EU below x" (the paper: 50% of error below EU=0.04).
	ShareBelowEU func(x float64) float64
	// ShareBelowAU is the AU-axis analogue (the paper: 50% below AU=0.25).
	ShareBelowAU func(x float64) float64
}

// SummarizeUncertainty builds the Fig 5 summary from ensemble predictions
// and the aligned absolute errors.
func SummarizeUncertainty(preds []uq.Prediction, absErrs []float64) UncertaintySummary {
	au := uq.AUs(preds)
	eu := uq.EUs(preds)
	return UncertaintySummary{
		AU:           au,
		EU:           eu,
		MedianAU:     stats.Median(au),
		MedianEU:     stats.Median(eu),
		ShareBelowEU: stats.InverseCumulativeShare(eu, absErrs),
		ShareBelowAU: stats.InverseCumulativeShare(au, absErrs),
	}
}

// EUQuantileThreshold returns the EU value at the given quantile — a
// simple alternative threshold rule for datasets without a clear shoulder.
func EUQuantileThreshold(preds []uq.Prediction, q float64) float64 {
	eu := uq.EUs(preds)
	v := stats.Quantile(eu, q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

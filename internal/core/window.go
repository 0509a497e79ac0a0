package core

import (
	"fmt"

	"iotaxo/internal/dataset"
	"iotaxo/internal/uq"
)

// Window is every litmus estimate over one window of jobs, from a single
// pass that finds its duplicate sets: the duplicate floor (litmus 1), the
// concurrent-duplicate noise with the OoD rows left out (litmus 4) and, when
// predictions are given, the error served on the window and the share of it
// the OoD rows carry (litmus 3).
type Window struct {
	Floor DuplicateFloor
	Noise NoiseEstimate
	// Served scores the predictions against the measured throughputs.
	Served ErrorReport
	// OoDShare is the fraction of Served's total absolute log error carried
	// by the rows flagged OoD.
	OoDShare float64
}

// EstimateWindow runs the litmus tests over f. predLog (log10 throughput
// predictions) and ood (OoD flags) are aligned with f's rows, and either may
// be nil: without predLog, Served and OoDShare stay zero; without ood, no row
// is left out of the noise estimate. Past the length checks and the
// duplicate-set pass, a returned error is the noise estimate's, and every
// other field is set regardless.
func EstimateWindow(f *dataset.Frame, predLog []float64, ood []bool, tolSec float64) (Window, error) {
	if err := misaligned(f, "predLog", predLog); err != nil {
		return Window{}, err
	}
	if err := misaligned(f, "oodFlags", ood); err != nil {
		return Window{}, err
	}
	d, err := FindDuplicates(f)
	if err != nil {
		return Window{}, err
	}
	w := Window{Floor: d.Floor()}
	if predLog != nil {
		w.Served = EvaluatePredictions(predLog, f.Y())
		if ood != nil {
			w.OoDShare = errorShare(w.Served.AbsLogErrors, ood).ErrShare
		}
	}
	w.Noise, err = d.Noise(ood, tolSec)
	return w, err
}

// misaligned reports a non-nil per-row input that is not f's length.
func misaligned[T any](f *dataset.Frame, name string, rows []T) error {
	if rows != nil && len(rows) != f.Len() {
		return fmt.Errorf("core: %s length %d != frame %d", name, len(rows), f.Len())
	}
	return nil
}

// Calibration is what litmus tests 3 and 4 hand a guard: the EU threshold,
// the frame rows above it, and the window with those rows flagged OoD.
type Calibration struct {
	Threshold float64
	Flags     []bool
	Window
}

// Calibrate is the one calibration of an ensemble guard, for RunFramework's
// steps 4-5 and for a serving bundle alike. preds and absErrs are the
// ensemble's predictions and the model's absolute log10 errors on the
// calibration rows, which pick a threshold <= 0 (flagOoD); framePreds, on
// every row of f, set the flags. Past the length check, a returned error is
// EstimateWindow's and Threshold and Flags are set regardless.
func Calibrate(f *dataset.Frame, preds []uq.Prediction, absErrs []float64, threshold float64, framePreds []uq.Prediction, tolSec float64) (Calibration, error) {
	if len(preds) != len(absErrs) {
		return Calibration{}, fmt.Errorf("core: %d predictions vs %d errors", len(preds), len(absErrs))
	}
	var c Calibration
	c.Threshold, c.Flags = flagOoD(preds, absErrs, threshold, framePreds)
	var err error
	c.Window, err = EstimateWindow(f, nil, c.Flags, tolSec)
	return c, err
}

package core

import (
	"math"
	"reflect"
	"testing"

	"iotaxo/internal/dataset"
	"iotaxo/internal/rng"
	"iotaxo/internal/system"
	"iotaxo/internal/uq"
)

// windowFrame is a simulated Theta window large enough to hold concurrent
// duplicate sets, with log10 predictions off by a seeded spread and every
// fifth row flagged OoD.
func windowFrame(t *testing.T) (*dataset.Frame, []float64, []bool) {
	t.Helper()
	m, err := system.Generate(system.ThetaLike(1500))
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Frame()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	predLog := make([]float64, f.Len())
	ood := make([]bool, f.Len())
	for i, y := range f.Y() {
		predLog[i] = math.Log10(y) + 0.1*r.Norm()
		ood[i] = i%5 == 0
	}
	return f, predLog, ood
}

// sameBits fails unless got and want are deeply equal and every scalar in
// them has the same bit pattern.
func sameBits(t *testing.T, name string, got, want any) {
	t.Helper()
	g := scalarLines(name, reflect.ValueOf(got), nil)
	w := scalarLines(name, reflect.ValueOf(want), nil)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(g, w) {
		t.Errorf("%s differs from its separate estimate:\n got %v\nwant %v", name, g, w)
	}
}

// TestEstimateWindowMatchesSeparateEstimates: the one-pass window is bit for
// bit the four litmus estimates computed on their own.
func TestEstimateWindowMatchesSeparateEstimates(t *testing.T) {
	f, predLog, ood := windowFrame(t)
	w, err := EstimateWindow(f, predLog, ood, 1)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := EstimateDuplicateFloor(f)
	if err != nil {
		t.Fatal(err)
	}
	noise, err := EstimateNoise(f, ood, 1)
	if err != nil {
		t.Fatal(err)
	}
	served := EvaluatePredictions(predLog, f.Y())
	// An EU of 4 against a threshold of 1 flags exactly the OoD rows.
	preds := make([]uq.Prediction, f.Len())
	for i, o := range ood {
		if o {
			preds[i].EU = 4
		}
	}
	rep, err := AttributeOoD(preds, served.AbsLogErrors, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Floor", w.Floor, floor)
	sameBits(t, "Noise", w.Noise, noise)
	sameBits(t, "Served", w.Served, served)
	sameBits(t, "OoDShare", w.OoDShare, rep.ErrShare)
	if w.Floor.Sets == 0 || w.Noise.Sets == 0 || w.OoDShare == 0 {
		t.Fatalf("window too thin to compare: %d duplicate sets, %d concurrent sets, OoD share %v",
			w.Floor.Sets, w.Noise.Sets, w.OoDShare)
	}
	if unflagged, _ := EstimateNoise(f, nil, 1); unflagged.Jobs == w.Noise.Jobs {
		t.Error("the OoD flags left no concurrent duplicate out of the noise estimate")
	}

	// Without predictions the served error and its OoD share stay zero.
	bare, err := EstimateWindow(f, nil, ood, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Floor without predictions", bare.Floor, floor)
	sameBits(t, "Noise without predictions", bare.Noise, noise)
	if bare.Served.N != 0 || bare.OoDShare != 0 {
		t.Errorf("no predictions, but served %+v and OoD share %v", bare.Served, bare.OoDShare)
	}
}

// TestEstimateWindowWithoutStartTimes: with no start times there is no
// concurrent duplicate, so the noise estimate's error comes back, and the
// floor is still set: the contract Calibrate hands serve.Build.
func TestEstimateWindowWithoutStartTimes(t *testing.T) {
	f, _, _ := windowFrame(t)
	noStart := dataset.MustNewFrame(f.Columns())
	for i := 0; i < f.Len(); i++ {
		meta := f.Meta(i)
		meta.Start = 0
		if err := noStart.Append(f.Row(i), f.Y()[i], meta); err != nil {
			t.Fatal(err)
		}
	}
	w, err := EstimateWindow(noStart, nil, nil, 1)
	if err == nil {
		t.Fatalf("no start times, yet a noise estimate: %+v", w.Noise)
	}
	floor, ferr := EstimateDuplicateFloor(noStart)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if w.Floor.Sets == 0 {
		t.Fatal("the floor was dropped along with the noise estimate")
	}
	sameBits(t, "Floor", w.Floor, floor)

	preds := make([]uq.Prediction, noStart.Len())
	cal, err := Calibrate(noStart, preds, make([]float64, len(preds)), 0.5, preds, 1)
	if err == nil || cal.Threshold != 0.5 || len(cal.Flags) != noStart.Len() || cal.Floor.Sets != floor.Sets {
		t.Errorf("Calibrate without start times: err %v, threshold %v, %d flags, %d floor sets",
			err, cal.Threshold, len(cal.Flags), cal.Floor.Sets)
	}
}

func TestEstimateWindowRejectsMisalignedInputs(t *testing.T) {
	f := dupFrame(t, 10, 3, 5, 0.05)
	n := f.Len()
	for name, call := range map[string]func() error{
		"short predLog": func() error { _, err := EstimateWindow(f, make([]float64, n-1), nil, 1); return err },
		"long predLog":  func() error { _, err := EstimateWindow(f, make([]float64, n+1), nil, 1); return err },
		"short ood":     func() error { _, err := EstimateWindow(f, nil, make([]bool, n-1), 1); return err },
		"long ood":      func() error { _, err := EstimateWindow(f, make([]float64, n), make([]bool, n+1), 1); return err },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

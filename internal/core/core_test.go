package core

import (
	"math"
	"testing"

	"iotaxo/internal/dataset"
	"iotaxo/internal/rng"
	"iotaxo/internal/stats"
)

// constModel predicts a fixed log10 value.
type constModel float64

func (c constModel) Predict([]float64) float64 { return float64(c) }
func (c constModel) PredictAll(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i := range out {
		out[i] = float64(c)
	}
	return out
}

func TestEvaluatePredictions(t *testing.T) {
	actual := []float64{100, 100, 100}
	pred := []float64{2, 2, 3} // log10: predicts 100, 100, 1000
	rep := EvaluatePredictions(pred, actual)
	if rep.N != 3 {
		t.Errorf("N = %d", rep.N)
	}
	if rep.MedianAbsLog != 0 {
		t.Errorf("median = %v, want 0", rep.MedianAbsLog)
	}
	if !almost(rep.MeanAbsLog, 1.0/3, 1e-12) {
		t.Errorf("mean = %v", rep.MeanAbsLog)
	}
	// Signed error: third job's actual is below prediction.
	if rep.SignedLogErrors[2] >= 0 {
		t.Error("overestimation should be negative signed log error")
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEvaluateWithModel(t *testing.T) {
	f := dataset.MustNewFrame([]string{"posix_x"})
	_ = f.Append([]float64{1}, 100, dataset.Meta{})
	_ = f.Append([]float64{2}, 1000, dataset.Meta{})
	rep := Evaluate(constModel(2), f)
	// errors: 0 and 1 in log space; median 0.5 -> 10^0.5-1.
	if !almost(rep.MedianAbsLog, 0.5, 1e-12) {
		t.Errorf("median abs log = %v", rep.MedianAbsLog)
	}
	if !almost(rep.MedianAbsPct, math.Pow(10, 0.5)-1, 1e-12) {
		t.Errorf("median pct = %v", rep.MedianAbsPct)
	}
}

// dupFrame builds a frame with controlled duplicate structure: nSets sets
// of setSize jobs each, with log-normal spread sigma, plus nSingle
// singleton jobs. Throughputs are centered per set.
func dupFrame(t *testing.T, nSets, setSize, nSingle int, sigma float64) *dataset.Frame {
	t.Helper()
	f := dataset.MustNewFrame([]string{"posix_a", "posix_b"})
	r := rng.New(42)
	id := 0
	for s := 0; s < nSets; s++ {
		base := 9.0 + 0.1*float64(s)
		for k := 0; k < setSize; k++ {
			y := math.Pow(10, base+sigma*r.Norm())
			meta := dataset.Meta{
				JobID: id, App: "app", Start: float64(1000 * id),
				End: float64(1000*id + 500), ConfigKey: uint64(s + 1),
			}
			if err := f.Append([]float64{float64(s), 1}, y, meta); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	for k := 0; k < nSingle; k++ {
		meta := dataset.Meta{
			JobID: id, App: "app", Start: float64(1000 * id),
			End: float64(1000*id + 500), ConfigKey: uint64(10000 + k),
		}
		if err := f.Append([]float64{float64(1000 + k), 1}, 1e9, meta); err != nil {
			t.Fatal(err)
		}
		id++
	}
	return f
}

func TestEstimateDuplicateFloorRecoversSigma(t *testing.T) {
	sigma := 0.04
	f := dupFrame(t, 150, 8, 300, sigma)
	floor, err := EstimateDuplicateFloor(f)
	if err != nil {
		t.Fatal(err)
	}
	if floor.Sets != 150 || floor.DuplicateJobs != 1200 {
		t.Errorf("structure: %d sets, %d jobs", floor.Sets, floor.DuplicateJobs)
	}
	if !almost(floor.Fraction, 1200.0/1500, 1e-9) {
		t.Errorf("fraction = %v", floor.Fraction)
	}
	// Median |N(0, sigma)| = 0.6745 sigma.
	want := 0.6745 * sigma
	if math.Abs(floor.MedianAbsLog-want) > 0.15*want {
		t.Errorf("floor = %v, want ~%v", floor.MedianAbsLog, want)
	}
	app, ok := floor.PerApp["app"]
	if !ok || app.Jobs != 1200 {
		t.Errorf("per-app breakdown missing: %+v", floor.PerApp)
	}
}

func TestDuplicateFloorBesselCorrection(t *testing.T) {
	// With 2-job sets the naive deviation underestimates sigma by sqrt(2);
	// the corrected floor should still recover ~0.6745*sigma.
	sigma := 0.05
	f := dupFrame(t, 400, 2, 0, sigma)
	floor, err := EstimateDuplicateFloor(f)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6745 * sigma
	if math.Abs(floor.MedianAbsLog-want) > 0.12*want {
		t.Errorf("2-job floor = %v, want ~%v (Bessel)", floor.MedianAbsLog, want)
	}
}

func TestDuplicatePairsWeights(t *testing.T) {
	f := dupFrame(t, 5, 6, 0, 0.03)
	pairs, err := DuplicatePairs(f)
	if err != nil {
		t.Fatal(err)
	}
	// 5 sets x C(6,2)=15 pairs.
	if len(pairs) != 75 {
		t.Fatalf("pairs = %d, want 75", len(pairs))
	}
	total := 0.0
	for _, p := range pairs {
		total += p.Weight
		if p.DeltaT < 0 {
			t.Error("negative DeltaT")
		}
	}
	// Each set contributes weight 1.
	if !almost(total, 5, 1e-9) {
		t.Errorf("total weight = %v, want 5", total)
	}
	// Sorted by DeltaT.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].DeltaT < pairs[i-1].DeltaT {
			t.Fatal("pairs not sorted by DeltaT")
		}
	}
}

func TestDuplicatePairsCapsHugeSets(t *testing.T) {
	f := dupFrame(t, 1, 500, 0, 0.03)
	pairs, err := DuplicatePairs(f)
	if err != nil {
		t.Fatal(err)
	}
	max := maxPairsPerSet * (maxPairsPerSet + 1) / 2
	if len(pairs) > max {
		t.Errorf("huge set produced %d pairs (cap ~%d)", len(pairs), max)
	}
}

// concurrentFrame builds ∆t=0 duplicate groups with a known noise sigma.
func concurrentFrame(t *testing.T, nSets, setSize int, sigma float64) *dataset.Frame {
	t.Helper()
	f := dataset.MustNewFrame([]string{"posix_a"})
	r := rng.New(7)
	id := 0
	for s := 0; s < nSets; s++ {
		start := float64(100000 * (s + 1))
		for k := 0; k < setSize; k++ {
			y := math.Pow(10, 10+sigma*r.Norm())
			meta := dataset.Meta{
				JobID: id, App: "app", Start: start, End: start + 600,
				ConfigKey: uint64(s + 1),
			}
			if err := f.Append([]float64{float64(s)}, y, meta); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	return f
}

func TestEstimateNoiseRecoversSigma(t *testing.T) {
	sigma := 0.024 // Theta's ±5.7%
	f := concurrentFrame(t, 500, 2, sigma)
	est, err := EstimateNoise(f, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sets != 500 || est.Jobs != 1000 {
		t.Errorf("structure: %d sets / %d jobs", est.Sets, est.Jobs)
	}
	if est.TwoJobSetFrac != 1 {
		t.Errorf("two-job fraction = %v", est.TwoJobSetFrac)
	}
	// The corrected sigma recovers the truth; the naive one is biased low
	// by sqrt(2) for two-job sets.
	if math.Abs(est.SigmaLog-sigma) > 0.15*sigma {
		t.Errorf("corrected sigma = %v, want ~%v", est.SigmaLog, sigma)
	}
	wantNaive := sigma / math.Sqrt2
	if math.Abs(est.NaiveSigmaLog-wantNaive) > 0.15*wantNaive {
		t.Errorf("naive sigma = %v, want ~%v", est.NaiveSigmaLog, wantNaive)
	}
	// Bounds follow the corrected sigma.
	if !almost(est.Bound68Pct, math.Pow(10, est.SigmaLog)-1, 1e-9) {
		t.Errorf("68%% bound = %v", est.Bound68Pct)
	}
	if est.Bound95Pct <= est.Bound68Pct {
		t.Error("95% bound not above 68% bound")
	}
}

func TestEstimateNoiseExcludesOoD(t *testing.T) {
	f := concurrentFrame(t, 50, 2, 0.02)
	flags := make([]bool, f.Len())
	for i := range flags {
		flags[i] = true // everything flagged: no sets remain
	}
	if _, err := EstimateNoise(f, flags, 1); err == nil {
		t.Error("expected error when all jobs are OoD-flagged")
	}
	if _, err := EstimateNoise(f, []bool{true}, 1); err == nil {
		t.Error("flag length mismatch accepted")
	}
}

func TestEstimateNoiseIgnoresSpreadDuplicates(t *testing.T) {
	// Duplicates at different times must not enter the ∆t=0 estimate.
	f := dupFrame(t, 100, 3, 0, 0.5) // starts are 1000s apart
	if _, err := EstimateNoise(f, nil, 1); err == nil {
		t.Error("spread duplicates treated as concurrent")
	}
}

func TestDeltaTBins(t *testing.T) {
	pairs := []DupPair{
		{DeltaT: 0.5, DeltaLog: 0.01, Weight: 1},
		{DeltaT: 5, DeltaLog: -0.02, Weight: 1},
		{DeltaT: 2e6, DeltaLog: 0.2, Weight: 1},
		{DeltaT: 5e7, DeltaLog: -0.3, Weight: 1},
	}
	bins := DeltaTBins(pairs)
	if len(bins) != 9 {
		t.Fatalf("bins = %d, want 9", len(bins))
	}
	if bins[0].Pairs != 1 || bins[1].Pairs != 1 || bins[7].Pairs != 1 || bins[8].Pairs != 1 {
		t.Errorf("bin assignment wrong: %+v", bins)
	}
	// Quantiles ordered for populated bins.
	for _, b := range bins {
		if b.Pairs == 0 {
			continue
		}
		if b.P05 > b.P25 || b.P25 > b.Median || b.Median > b.P75 || b.P75 > b.P95 {
			t.Errorf("bin %s quantiles unordered", b.Label)
		}
	}
}

func TestGroupByStart(t *testing.T) {
	f := dataset.MustNewFrame([]string{"posix_a"})
	// Rows 5–7 carry no start (0) or a negative one: unknown, so they join
	// no group, not even one with each other.
	starts := []float64{100, 100.5, 200, 200.2, 500, 0, 0, -1}
	for i, s := range starts {
		_ = f.Append([]float64{1}, 1e9, dataset.Meta{JobID: i, App: "x", Start: s, ConfigKey: 1})
	}
	groups := groupByStart(f, []int{0, 1, 2, 3, 4, 5, 6, 7}, nil, 1)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if len(groups[0]) != 2 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Errorf("group sizes wrong: %v", groups)
	}
}

func TestNoiseFitIsHeavierTailedAcrossApps(t *testing.T) {
	// Pooled deviations across apps with different noise levels form a
	// scale mixture — the t fit should pick finite degrees of freedom
	// below the near-normal regime (the paper's Fig 6 observation).
	f := dataset.MustNewFrame([]string{"posix_a"})
	r := rng.New(11)
	id := 0
	for s := 0; s < 400; s++ {
		sigma := 0.01
		if s%2 == 0 {
			sigma = 0.06
		}
		start := float64(100000 * (s + 1))
		for k := 0; k < 2; k++ {
			y := math.Pow(10, 10+sigma*r.Norm())
			_ = f.Append([]float64{float64(s)}, y, dataset.Meta{
				JobID: id, App: "x", Start: start, End: start + 60, ConfigKey: uint64(s + 1)})
			id++
		}
	}
	est, err := EstimateNoise(f, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.TFit.Nu > 50 {
		t.Errorf("t fit nu = %v; expected heavy tails from the scale mixture", est.TFit.Nu)
	}
	// And the t fit should beat the normal on likelihood grounds: its
	// implied central spread should be narrower than the normal sigma.
	if est.TFit.Sigma >= est.NormalFit.Sigma {
		t.Errorf("t scale %v not below normal sigma %v", est.TFit.Sigma, est.NormalFit.Sigma)
	}
}

var _ = stats.Mean // keep stats imported for helper reuse in other files

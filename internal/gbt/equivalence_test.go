package gbt

import (
	"math"
	"slices"
	"sort"
	"testing"

	"iotaxo/internal/rng"
)

// The fast path must be observably equivalent to the reference path:
// shared binning (TrainBinned/FitBinned), leaf-partition boosting updates,
// the blocked PredictAll kernel, and warm-started prefix sweeps all claim
// bit-identical predictions. These tests pin that claim on fixed seeds.

// equivConfigs covers the regimes that exercise different training paths:
// full-sample leaf updates, subsampled coded out-of-sample prediction,
// column sampling, deep trees, and a coarse bin budget.
func equivConfigs() []Params {
	full := DefaultParams()
	full.NumTrees = 40

	sub := TunedBase()
	sub.NumTrees = 30
	sub.MaxDepth = 10
	sub.Subsample = 0.6
	sub.ColSample = 0.5
	sub.Seed = 7

	coarse := DefaultParams()
	coarse.NumTrees = 25
	coarse.MaxDepth = 4
	coarse.NumBins = 16
	coarse.Subsample = 0.8

	return []Params{full, sub, coarse}
}

func bitEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: index %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestTrainBinnedMatchesTrain: one shared Bin + TrainBinned must produce
// the same model (predictions and split gains) as Train on the raw rows.
func TestTrainBinnedMatchesTrain(t *testing.T) {
	rows, y := synth(2500, 0.1, 31)
	probe, _ := synth(400, 0.1, 32)
	for ci, p := range equivConfigs() {
		ref, err := Train(p, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := Bin(rows, p.NumBins)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := TrainBinned(p, bd, y)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, "train preds", ref.PredictAll(rows), fast.PredictAll(rows))
		bitEqual(t, "probe preds", ref.PredictAll(probe), fast.PredictAll(probe))
		bitEqual(t, "importance", ref.FeatureImportance(), fast.FeatureImportance())
		_ = ci
	}
}

// TestFitBinnedTrainPred: the in-sample predictions boosting maintains must
// equal a full prediction pass over the training rows.
func TestFitBinnedTrainPred(t *testing.T) {
	rows, y := synth(1800, 0.2, 33)
	for _, p := range equivConfigs() {
		bd, err := Bin(rows, p.NumBins)
		if err != nil {
			t.Fatal(err)
		}
		m, trainPred, err := FitBinned(p, bd, y)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, "maintained train preds", m.PredictAll(rows), trainPred)
	}
}

// TestPredictAllMatchesPredict: the blocked batch kernel must reproduce
// per-row Predict bit-for-bit, including on chunk-boundary sizes.
func TestPredictAllMatchesPredict(t *testing.T) {
	rows, y := synth(3000, 0.1, 34)
	p := DefaultParams()
	p.NumTrees = 60
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 127, 128, 129, 1000} {
		sub := rows[:n]
		want := make([]float64, n)
		for i, r := range sub {
			want[i] = m.Predict(r)
		}
		bitEqual(t, "blocked PredictAll", want, m.PredictAll(sub))
	}
}

// TestPredictStagesMatchesIndependentModels: scoring tree-count prefixes of
// one max-trees model must match independently trained models with the same
// effective tree count — the warm-start sweep's core claim.
func TestPredictStagesMatchesIndependentModels(t *testing.T) {
	rows, y := synth(1500, 0.15, 35)
	probe, _ := synth(300, 0.15, 36)
	base := TunedBase()
	base.MaxDepth = 7
	base.Subsample = 0.7
	base.Seed = 3
	stages := []int{4, 16, 41, 64}

	full := base
	full.NumTrees = stages[len(stages)-1]
	m, err := Train(full, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := m.PredictStages(probe, stages)
	if err != nil {
		t.Fatal(err)
	}
	for si, k := range stages {
		pk := base
		pk.NumTrees = k
		mk, err := Train(pk, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, "staged prefix", mk.PredictAll(probe), staged[si])
	}
}

// TestPredictStagesValidation: stage lists must be ascending and in range.
func TestPredictStagesValidation(t *testing.T) {
	rows, y := synth(300, 0, 37)
	p := DefaultParams()
	p.NumTrees = 10
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictStages(rows[:5], []int{5, 3}); err == nil {
		t.Error("descending stages accepted")
	}
	if _, err := m.PredictStages(rows[:5], []int{4, 11}); err == nil {
		t.Error("stage beyond NumTrees accepted")
	}
	out, err := m.PredictStages(rows[:5], []int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out[0] {
		if out[0][i] != m.flat.bias {
			t.Error("stage 0 is not the bias")
		}
	}
	bitEqual(t, "full stage", m.PredictAll(rows[:5]), out[1])
}

// TestSelectColumnsMatchesDirectBinning: a column view of a shared Bin must
// train the same model as binning the raw column subset.
func TestSelectColumnsMatchesDirectBinning(t *testing.T) {
	rows, y := synth(1200, 0.1, 38)
	sub := make([][]float64, len(rows))
	colIdx := []int{0, 2}
	for i, r := range rows {
		sub[i] = []float64{r[0], r[2]}
	}
	p := DefaultParams()
	p.NumTrees = 30
	bdFull, err := Bin(rows, p.NumBins)
	if err != nil {
		t.Fatal(err)
	}
	view, err := bdFull.SelectColumns(colIdx)
	if err != nil {
		t.Fatal(err)
	}
	mView, err := TrainBinned(p, view, y)
	if err != nil {
		t.Fatal(err)
	}
	mDirect, err := Train(p, sub, y)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "column view preds", mDirect.PredictAll(sub), mView.PredictAll(sub))

	if _, err := bdFull.SelectColumns(nil); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := bdFull.SelectColumns([]int{99}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

// TestFlatMatchesModel: the compiled Flat engine must reproduce
// Model.Predict / Model.PredictAll bit-for-bit across randomized models —
// varied depth, bin budgets, and sampling regimes — on training rows,
// held-out rows, and chunk-boundary batch sizes.
func TestFlatMatchesModel(t *testing.T) {
	rows, y := synth(2200, 0.1, 41)
	probe, _ := synth(513, 0.1, 42) // crosses the 128/512 chunk boundaries
	r := rng.New(43)
	for trial := 0; trial < 8; trial++ {
		p := DefaultParams()
		p.NumTrees = 10 + r.Intn(40)
		p.MaxDepth = 2 + r.Intn(10)
		p.NumBins = 2 + r.Intn(200)
		p.LearningRate = 0.05 + 0.3*r.Float64()
		p.Subsample = 0.5 + 0.5*r.Float64()
		p.ColSample = 0.5 + 0.5*r.Float64()
		p.Seed = uint64(trial + 1)
		m, err := Train(p, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		fl := m.Compile()
		if fl.NumTrees() != m.NumTrees() || fl.NumFeatures() != m.NumFeatures() {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		bitEqual(t, "flat train preds", m.PredictAll(rows), fl.PredictAll(rows))
		bitEqual(t, "flat probe preds", m.PredictAll(probe), fl.PredictAll(probe))
		for _, n := range []int{1, 127, 128, 129} {
			sub := probe[:n]
			got := make([]float64, n)
			fl.PredictAllInto(sub, got)
			bitEqual(t, "flat chunk sizes", m.PredictAll(sub), got)
		}
		for i := 0; i < 50; i++ {
			row := probe[r.Intn(len(probe))]
			if math.Float64bits(m.Predict(row)) != math.Float64bits(fl.Predict(row)) {
				t.Fatalf("trial %d: single-row Flat.Predict diverges", trial)
			}
		}
	}
}

// TestFlatDegenerateSingleLeaf: a model whose trees never split must
// compile and predict the bias-plus-leaf constant everywhere.
func TestFlatDegenerateSingleLeaf(t *testing.T) {
	// A constant target admits no gainful split, so every tree is one leaf.
	rows, _ := synth(300, 0, 44)
	y := make([]float64, len(rows))
	for i := range y {
		y[i] = 3.5
	}
	p := DefaultParams()
	p.NumTrees = 5
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	fl := m.Compile()
	bitEqual(t, "single-leaf preds", m.PredictAll(rows), fl.PredictAll(rows))
	if len(fl.feature) != len(fl.roots) || slices.Max(fl.feature) >= 0 {
		t.Fatal("expected degenerate single-leaf trees")
	}
}

// TestFlatRoundTripSerialized: a model that went through its artifact must
// still predict bit-identically through its Flat — the registry's load
// path.
func TestFlatRoundTripSerialized(t *testing.T) {
	rows, y := synth(900, 0.1, 45)
	p := TunedBase()
	p.NumTrees = 25
	p.MaxDepth = 8
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBinary(binaryOf(t, m))
	if err != nil {
		t.Fatal(err)
	}
	fl := loaded.Compile()
	bitEqual(t, "serialized flat preds", m.PredictAll(rows), fl.PredictAll(rows))
}

// TestFlatNaNRow: raw traversal sends a NaN feature right at every split
// (NaN <= t is false); the quantized walk must do the same.
func TestFlatNaNRow(t *testing.T) {
	rows, y := synth(800, 0.1, 46)
	p := DefaultParams()
	p.NumTrees = 20
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	fl := m.Compile()
	row := append([]float64(nil), rows[0]...)
	row[1] = math.NaN()
	batch := [][]float64{row, rows[1], row}
	bitEqual(t, "nan rows", m.PredictAll(batch), fl.PredictAll(batch))
}

// TestFlatPredictAllIntoValidation: output-length mismatches must panic
// rather than silently truncate.
func TestFlatPredictAllIntoValidation(t *testing.T) {
	rows, y := synth(50, 0, 47)
	p := DefaultParams()
	p.NumTrees = 3
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	fl := m.Compile()
	defer func() {
		if recover() == nil {
			t.Fatal("short output accepted")
		}
	}()
	fl.PredictAllInto(rows, make([]float64, len(rows)-1))
}

// TestSampleColsSorted: the per-round column sample must come back in
// ascending order for any fraction.
func TestSampleColsSorted(t *testing.T) {
	r := rng.New(9)
	var buf []int
	for i := 0; i < 50; i++ {
		cols := sampleCols(&buf, 20, 0.4, r)
		if !sort.IntsAreSorted(cols) {
			t.Fatalf("unsorted column sample %v", cols)
		}
		if len(cols) != 8 {
			t.Fatalf("sample size %d, want 8", len(cols))
		}
		seen := map[int]bool{}
		for _, c := range cols {
			if c < 0 || c >= 20 || seen[c] {
				t.Fatalf("invalid sample %v", cols)
			}
			seen[c] = true
		}
	}
}

// TestTrainBinnedRejectsMismatchedBins: reusing a view with a different bin
// budget must fail loudly rather than silently change the model.
func TestTrainBinnedRejectsMismatchedBins(t *testing.T) {
	rows, y := synth(200, 0, 39)
	bd, err := Bin(rows, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.NumBins = 32
	if _, err := TrainBinned(p, bd, y); err == nil {
		t.Error("bin-budget mismatch accepted")
	}
	if _, err := TrainBinned(DefaultParams(), bd, y[:50]); err == nil {
		t.Error("target length mismatch accepted")
	}
}

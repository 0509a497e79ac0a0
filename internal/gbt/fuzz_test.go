package gbt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzFlatCompile hardens the coded walk: for any model the validating
// decoder accepts — however degenerate or hostile its structure — the
// Flat's predictions are bit-identical to the raw-threshold walk over the
// same arrays, batched and single-row, including on non-finite inputs,
// through threshold tables that checkCodes accepts.
// Each input is decoded with its checksum recomputed, so the fuzzer explores
// tree structure rather than checksum mismatches. Its bases are small, so
// that the fuzzer minimizes a new input in milliseconds: one- and two-tree
// stumps trained on smallModel's data, smallModel itself, and the small
// checked-in seeds in testdata/fuzz/FuzzFlatCompile. The large cases (deeper
// trained models and testdata/flatcompile) run in TestFlatCompileCases.
func FuzzFlatCompile(f *testing.F) {
	rows, y := synth(80, 0.05, 17)
	for _, trees := range []int{1, 2} {
		p := DefaultParams()
		p.NumTrees = trees
		p.MaxDepth = 2
		m, err := Train(p, rows, y)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(binaryOf(f, m), int64(3))
	}
	f.Add(binaryOf(f, smallModel(f)), int64(7))
	f.Fuzz(checkFlatWalk)
}

// checkFlatWalk is FuzzFlatCompile's property on one input.
func checkFlatWalk(t *testing.T, data []byte, probeSeed int64) {
	if len(data) < 4 {
		return
	}
	m, err := ReadBinary(reseal(data))
	if err != nil {
		return
	}
	fl := m.Compile()
	if fl.NumTrees() != m.NumTrees() || fl.NumFeatures() != m.NumFeatures() {
		t.Fatal("compiled shape diverges from the source model")
	}
	checkCodes(t, "fuzzed model", m, nil)
	probe, _ := synth(140, 0.2, uint64(probeSeed))
	batch := make([][]float64, len(probe))
	for i := range probe {
		batch[i] = probe[i][:0]
		for j := 0; j < m.NumFeatures(); j++ {
			batch[i] = append(batch[i], probe[i][j%len(probe[i])])
		}
	}
	// Sprinkle non-finite values: the quantized walk must agree with
	// the raw comparisons on them too.
	batch[0][0] = math.NaN()
	if m.NumFeatures() > 1 {
		batch[1][1] = math.Inf(1)
		batch[2][1] = math.Inf(-1)
	}
	want := m.PredictAll(batch)
	got := fl.PredictAll(batch)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: model %v vs flat %v", i, want[i], got[i])
		}
	}
	for i := 0; i < 5 && i < len(batch); i++ {
		if math.Float64bits(m.Predict(batch[i])) != math.Float64bits(fl.Predict(batch[i])) {
			t.Fatalf("single row %d diverges", i)
		}
	}
}

// TestFlatCompileCases runs FuzzFlatCompile's property on the inputs too
// large to fuzz from in a short run: two trained models, and two checked-in
// cases in go test fuzz v1 form, probe seed included: 256 thresholds on one
// feature, which the decoder must refuse, and repeated, zero and
// one-ulp-apart thresholds, which it must accept.
func TestFlatCompileCases(t *testing.T) {
	rows, y := synth(200, 0.05, 11)
	for _, trees := range []int{1, 8} {
		p := DefaultParams()
		p.NumTrees = trees
		p.MaxDepth = 5
		m, err := Train(p, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("trained_%d_trees", trees), func(t *testing.T) { checkFlatWalk(t, binaryOf(t, m), 3) })
	}
	for name, wantErr := range map[string]error{"seed_256_thresholds": ErrTooManyThresholds, "seed_repeats_zeros_ulps": nil} {
		path := filepath.Join("testdata/flatcompile", name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var probeSeed int64
		if _, err := fmt.Sscanf(strings.Split(string(raw), "\n")[2], "int64(%d)", &probeSeed); err != nil {
			t.Fatalf("%s: its second argument is not an int64: %v", path, err)
		}
		data := corpusBytes(t, path)
		if _, err := ReadBinary(data); !errors.Is(err, wantErr) {
			t.Fatalf("%s: decoded with error %v, want %v", path, err, wantErr)
		}
		t.Run(name, func(t *testing.T) { checkFlatWalk(t, data, probeSeed) })
	}
}

// corpusBytes returns the first argument of a checked-in fuzz seed, a
// []byte.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	arg, ok := strings.CutPrefix(strings.Split(string(raw), "\n")[1], "[]byte(")
	s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: its first argument is not a []byte: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzSeedsReachAcceptPath: the checked-in seeds named for a valid model
// are ones: they decode, so the fuzzers start from the accept path.
func TestFuzzSeedsReachAcceptPath(t *testing.T) {
	for _, seed := range []string{
		"fuzz/FuzzReadBinary/seed_valid_single_leaf",
		"fuzz/FuzzReadBinary/seed_split_tree",
		"fuzz/FuzzFlatCompile/seed_single_leaf",
		"fuzz/FuzzFlatCompile/seed_split_tree",
		"flatcompile/seed_repeats_zeros_ulps",
	} {
		data := corpusBytes(t, filepath.Join("testdata", seed))
		m, err := ReadBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		checkAccepted(t, data, m)
	}
}

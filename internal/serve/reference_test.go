package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
)

func TestBuildFeatureHists(t *testing.T) {
	cols := []string{"a", "b"}
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(i), 7} // a: uniform 0..99, b: constant
	}
	hists, err := BuildFeatureHists(cols, rows, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hists) != 2 {
		t.Fatalf("got %d hists", len(hists))
	}
	a := hists[0]
	if a.Name != "a" || a.NumBins() != 10 {
		t.Fatalf("feature a: %+v", a)
	}
	if a.Total() != 100 {
		t.Errorf("feature a total = %d", a.Total())
	}
	// Quantile bins over a uniform sample are balanced.
	for b, c := range a.Counts {
		if c < 5 || c > 15 {
			t.Errorf("feature a bin %d count %d, want ~10", b, c)
		}
	}
	// Constant feature collapses to two bins: everything at or below the
	// constant, nothing above — and a larger live value is distinguishable.
	b := hists[1]
	if b.NumBins() != 2 {
		t.Fatalf("constant feature bins = %d, want 2", b.NumBins())
	}
	if b.Counts[0] != 100 || b.Counts[1] != 0 {
		t.Errorf("constant feature counts = %v", b.Counts)
	}
	if b.BinIndex(7) != 0 || b.BinIndex(8) != 1 {
		t.Error("constant feature bin boundaries wrong")
	}

	if _, err := BuildFeatureHists(cols, nil, 10); err == nil {
		t.Error("no rows accepted")
	}
	if _, err := BuildFeatureHists(cols, [][]float64{{1}}, 10); err == nil {
		t.Error("ragged rows accepted")
	}
}

// TestReferenceRoundTrip pins that the reference histograms survive the
// SaveVersion/LoadRegistry protocol — the drift detector must be able to
// monitor bundles loaded from disk, including live-reloaded ones.
func TestReferenceRoundTrip(t *testing.T) {
	_, v1, _ := fixture(t)
	if len(v1.Reference) == 0 {
		t.Fatal("BuildVersion produced no reference histograms")
	}
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := reg.Get("theta", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.Reference) != len(v1.Reference) {
		t.Fatalf("loaded %d reference hists, want %d", len(mv.Reference), len(v1.Reference))
	}
	for i := range mv.Reference {
		got, want := mv.Reference[i], v1.Reference[i]
		if got.Name != want.Name || len(got.Cuts) != len(want.Cuts) || got.Total() != want.Total() {
			t.Errorf("reference %d mismatch: got %+v want %+v", i, got, want)
		}
	}
}

func TestReferenceValidation(t *testing.T) {
	cols := []string{"a", "b"}
	ok := FeatureHist{Name: "a", Cuts: []float64{1}, Counts: []uint64{3, 4}}
	cases := []struct {
		name string
		ref  []FeatureHist
		want bool
	}{
		{"nil ok", nil, true},
		{"valid", []FeatureHist{ok}, true},
		{"unknown column", []FeatureHist{{Name: "zz", Cuts: []float64{1}, Counts: []uint64{1, 1}}}, false},
		{"duplicate", []FeatureHist{ok, ok}, false},
		{"cuts not ascending", []FeatureHist{{Name: "a", Cuts: []float64{2, 1}, Counts: []uint64{1, 1, 1}}}, false},
		{"nan cut", []FeatureHist{{Name: "a", Cuts: []float64{nan()}, Counts: []uint64{1, 1}}}, false},
		{"count/cut mismatch", []FeatureHist{{Name: "a", Cuts: []float64{1, 2}, Counts: []uint64{1, 1}}}, false},
		{"empty", []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{0, 0}}}, false},
		{"counts wrap to a small total", []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{math.MaxUint64, 2}}}, false},
		{"counts wrap to zero", []FeatureHist{{Name: "a", Cuts: []float64{1, 2}, Counts: []uint64{1 << 63, 0, 1 << 63}}}, false},
		{"largest total", []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{math.MaxUint64 - 1, 1}}}, true},
		{"more hists than columns", []FeatureHist{
			{Name: "a", Cuts: []float64{1}, Counts: []uint64{1, 1}},
			{Name: "b", Cuts: []float64{1}, Counts: []uint64{1, 1}},
			{Name: "a", Cuts: []float64{1}, Counts: []uint64{1, 1}},
		}, false},
	}
	for _, tc := range cases {
		err := validateReference(tc.ref, cols)
		if (err == nil) != tc.want {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.want)
		}
	}
}

// TestReferenceCountOverflowIsRefused: a histogram whose counts wrap is
// refused at the registry — the drift thresholds are computed from that
// total.
func TestReferenceCountOverflowIsRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	load := func(counts ...uint64) (*ModelVersion, error) {
		m := fuzzBundle(t)
		m.reference = referenceBinary(t, []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: counts}})
		writeBundle(t, dir, m)
		return loadVersionDir(dir, "theta", 1, new([]byte))
	}
	if _, err := load(math.MaxUint64, 2); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("got %v, want the overflow refused", err)
	}
	// The same bundle with a total that fits loads, so it was the sum.
	mv, err := load(math.MaxUint64-2, 2)
	if err != nil || len(mv.Reference) != 1 || mv.Reference[0].Total() != math.MaxUint64 {
		t.Errorf("the largest total that fits: %v", err)
	}
}

// twoHists is a reference small enough that the corruption tests can afford
// every bit and every length of its artifact, with the values a text form
// would be tempted to normalise: a negative zero and a subnormal cut, a
// count past 2^53.
func twoHists() []FeatureHist {
	return []FeatureHist{
		{Name: "a", Cuts: []float64{math.Copysign(0, -1), 5e-324, 1.5}, Counts: []uint64{1, 0, 1<<53 + 1, 7}},
		{Name: "b", Cuts: []float64{-3}, Counts: []uint64{0, 9}},
	}
}

func referenceBinary(t testing.TB, ref []FeatureHist) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeReference(&buf, ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealed recomputes data's checksum, so a corruption reaches the checks
// behind it.
func resealed(data []byte) []byte {
	return modelfile.Seal(append([]byte(nil), data[:len(data)-4]...))
}

// checkAcceptedReference is what must hold of anything readReference
// accepts: every histogram validates and the artifact is the one encoding
// of what it decoded to.
func checkAcceptedReference(t *testing.T, data []byte, ref []FeatureHist) {
	t.Helper()
	if len(ref) == 0 {
		t.Fatal("accepted a reference with no histograms")
	}
	for i := range ref {
		if err := ref[i].validate(); err != nil {
			t.Fatalf("accepted an invalid histogram: %v", err)
		}
	}
	if again := referenceBinary(t, ref); !bytes.Equal(again, data) {
		t.Fatalf("accepted artifact re-encodes differently (%d bytes in, %d out)", len(data), len(again))
	}
}

func TestReferenceBinaryRoundTrip(t *testing.T) {
	want := twoHists()
	data := referenceBinary(t, want)
	got, err := readReference(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	for i := range want {
		for j, c := range want[i].Cuts {
			if math.Float64bits(got[i].Cuts[j]) != math.Float64bits(c) {
				t.Errorf("histogram %d cut %d: bits %#x, want %#x", i, j, math.Float64bits(got[i].Cuts[j]), math.Float64bits(c))
			}
		}
	}
	// Two backing arrays, cut with capped slices: appending to one histogram
	// cannot write into the next.
	if cap(got[0].Cuts) != len(got[0].Cuts) || cap(got[0].Counts) != len(got[0].Counts) {
		t.Error("a histogram's slices have capacity into its neighbour's")
	}
	checkAcceptedReference(t, data, got)
}

// TestReadReferenceDetectsEveryFlipAndTruncation is the corruption table's
// row for the reference section, as TestReadBinaryDetectsEveryFlipAndTruncation is
// for a model: no single flipped bit and no truncated file is accepted, and
// with the checksum recomputed over the flip the file is refused or is the
// one encoding of a valid reference.
func TestReadReferenceDetectsEveryFlipAndTruncation(t *testing.T) {
	data := referenceBinary(t, twoHists())
	for n := 0; n < len(data); n++ {
		if ref, err := readReference(data[:n]); err == nil || ref != nil {
			t.Fatalf("file truncated to %d of %d bytes accepted", n, len(data))
		}
	}
	accepted := 0
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 1 << bit
			if ref, err := readReference(bad); err == nil || ref != nil {
				t.Fatalf("bit %d of byte %d flipped: accepted", bit, i)
			}
			if i >= len(data)-4 {
				continue
			}
			bad = resealed(bad)
			if ref, err := readReference(bad); err == nil {
				checkAcceptedReference(t, bad, ref)
				accepted++
			} else if ref != nil {
				t.Fatalf("bit %d of byte %d flipped and resealed: histograms alongside %v", bit, i, err)
			}
		}
	}
	// A low bit of a count is a different, equally valid reference.
	if accepted == 0 {
		t.Error("no resealed flip was accepted: the structural checks were not reached")
	}
}

// TestReadReferenceChecksSizesBeforeAllocating: a header may declare four
// billion bins, or more histograms than the body holds; the decoder must
// find that out from the lengths alone.
func TestReadReferenceChecksSizesBeforeAllocating(t *testing.T) {
	good := referenceBinary(t, twoHists())
	hlen := int(binary.LittleEndian.Uint32(good[8:]))
	header, body := string(good[12:12+hlen]), good[12+hlen:len(good)-4]
	if !strings.Contains(header, `"bins":[4,2]`) {
		t.Fatalf("unexpected header %s", header)
	}
	manyNames, manyBins := strings.Repeat(`"x",`, 500), strings.Repeat("64,", 500)
	for name, h := range map[string]string{
		"2^32-1 bins":         strings.Replace(header, `"bins":[4,2]`, `"bins":[4294967295,2]`, 1),
		"2^32 bins":           strings.Replace(header, `"bins":[4,2]`, `"bins":[4294967296,2]`, 1),
		"one bin":             strings.Replace(header, `"bins":[4,2]`, `"bins":[5,1]`, 1),
		"one bin too many":    strings.Replace(header, `"bins":[4,2]`, `"bins":[4,3]`, 1),
		"a histogram missing": strings.Replace(header, `"bins":[4,2]`, `"bins":[4]`, 1),
		"500 histograms more": strings.Replace(strings.Replace(header, `"names":[`, `"names":[`+manyNames, 1),
			`"bins":[`, `"bins":[`+manyBins, 1),
		"no histograms":       `{"names":[],"bins":[]}`,
		"null for histograms": `{"names":null,"bins":null}`,
	} {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), good[:8]...), uint32(len(h)))
		data = modelfile.Seal(append(append(data, h...), body...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ref, err := readReference(data)
		runtime.ReadMemStats(&after)
		if err == nil || ref != nil {
			t.Errorf("%s: accepted", name)
		}
		// What the header's own decode costs is bounded by the file.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: %d bytes allocated before the declared size was refused", name, got)
		}
	}
}

// FuzzReadReference hardens the reference decoder as FuzzReadBinary does the
// models': any input is refused with an error or is a reference
// checkAcceptedReference holds for. Each input is tried as given and with
// its checksum recomputed, which is how the fuzzer gets past the checksum to
// the length arithmetic and validate. Checked-in seeds live in
// testdata/fuzz/FuzzReadReference.
func FuzzReadReference(f *testing.F) {
	good := referenceBinary(f, twoHists())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:11])
	f.Add([]byte(refMagic))
	f.Add(append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, resealed(data))
		}
		for _, in := range inputs {
			ref, err := readReference(in)
			if err != nil {
				if ref != nil {
					t.Fatal("readReference returned histograms alongside an error")
				}
				continue
			}
			checkAcceptedReference(t, in, ref)
		}
	})
}

func nan() float64 {
	var z float64
	return 0 / z
}

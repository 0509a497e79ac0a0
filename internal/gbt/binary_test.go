package gbt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
)

// smallModel trains a model whose binary artifact is under a kilobyte, so
// the corruption tests can afford every bit and every length.
func smallModel(t testing.TB) *Model {
	t.Helper()
	rows, y := synth(80, 0.05, 17)
	p := DefaultParams()
	p.NumTrees = 3
	p.MaxDepth = 2
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func binaryOf(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes data's checksum, so a corruption reaches the checks
// behind it.
func reseal(data []byte) []byte {
	return modelfile.Seal(append([]byte(nil), data[:len(data)-4]...))
}

// checkAccepted is what must hold of anything ReadBinary accepts: it
// re-encodes to the same bytes (one model, one encoding), predicts finite
// values on finite rows, and its coded walk agrees with the raw-threshold
// walk bit for bit.
func checkAccepted(t *testing.T, data []byte, m *Model) {
	t.Helper()
	if again := binaryOf(t, m); !bytes.Equal(again, data) {
		t.Fatalf("accepted artifact re-encodes differently (%d bytes in, %d out)", len(data), len(again))
	}
	probe, _ := synth(40, 0.3, 5)
	rows := make([][]float64, len(probe))
	for i := range probe {
		rows[i] = make([]float64, m.NumFeatures())
		for j := range rows[i] {
			rows[i][j] = probe[i][j%len(probe[i])]
		}
	}
	want := m.PredictAll(rows)
	for i := range rows {
		if math.IsNaN(want[i]) || math.IsInf(want[i], 0) {
			t.Fatalf("row %d: accepted model predicts %v on a finite row", i, want[i])
		}
	}
	flat := m.Compile().PredictAll(rows)
	for i := range rows {
		if math.Float64bits(want[i]) != math.Float64bits(flat[i]) {
			t.Fatalf("row %d: tree walk %v, flat %v", i, want[i], flat[i])
		}
	}
}

func TestModelBinaryRoundTrip(t *testing.T) {
	rows, y := synth(800, 0.1, 31)
	p := DefaultParams()
	p.NumTrees = 40
	p.Subsample = 0.8
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	data := binaryOf(t, m)
	back, err := ReadBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if got, want := back.Predict(rows[i]), m.Predict(rows[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: %v != %v after round trip", i, got, want)
		}
	}
	if back.Params() != m.Params() || back.NumTrees() != m.NumTrees() {
		t.Error("params or tree count changed")
	}
	bi, mi := back.FeatureImportance(), m.FeatureImportance()
	for i := range mi {
		if bi[i] != mi[i] {
			t.Error("importance changed")
		}
	}
	checkAccepted(t, data, back)
}

// TestReadBinaryDetectsEveryFlipAndTruncation is the bundle row of the
// corruption table for a GBT artifact: no single flipped bit and no
// truncated file is masked or served. With the checksum recomputed over the
// flipped byte — a writer's bug rather than a disk's — the file is either
// refused by the structural checks or is a well-formed model.
func TestReadBinaryDetectsEveryFlipAndTruncation(t *testing.T) {
	data := binaryOf(t, smallModel(t))
	if _, err := ReadBinary(data); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if m, err := ReadBinary(data[:n]); err == nil || m != nil {
			t.Fatalf("file truncated to %d of %d bytes accepted", n, len(data))
		}
	}
	accepted := 0
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 1 << bit
			if m, err := ReadBinary(bad); err == nil || m != nil {
				t.Fatalf("bit %d of byte %d flipped: accepted", bit, i)
			}
			if i >= len(data)-4 {
				continue
			}
			bad = reseal(bad)
			if m, err := ReadBinary(bad); err == nil {
				checkAccepted(t, bad, m)
				accepted++
			} else if m != nil {
				t.Fatalf("bit %d of byte %d flipped and resealed: model alongside %v", bit, i, err)
			}
		}
	}
	// Low mantissa bits of a leaf are a different, equally valid model.
	if accepted == 0 {
		t.Error("no resealed flip was accepted: the structural checks were not reached")
	}
}

// craft seals a hand-made header over body.
func craft(t testing.TB, h binHeader, body []byte) []byte {
	t.Helper()
	b, err := modelfile.Begin(binMagic, h, len(body))
	if err != nil {
		t.Fatal(err)
	}
	return modelfile.Seal(append(b, body...))
}

// TestReadBinaryChecksSizesBeforeAllocating: a header may declare four
// billion nodes or features, or 255 thresholds on every feature; the file
// does not hold them, and the decoder must find that out from the lengths
// alone.
func TestReadBinaryChecksSizesBeforeAllocating(t *testing.T) {
	m := smallModel(t)
	nf := m.NumFeatures()
	h := m.header()
	body := make([]byte, 8*nf+nodeBytes)
	cases := map[string]binHeader{}
	h.EdgeLens = make([]uint16, nf)
	h.TreeLens = []uint32{math.MaxUint32, math.MaxUint32, 1}
	cases["nodes"] = h
	h.TreeLens = []uint32{1}
	h.EdgeLens = slices.Repeat([]uint16{255}, nf)
	cases["thresholds"] = h
	h.NFeature = math.MaxInt64 / 8
	cases["features"] = h
	h.NFeature, h.EdgeLens = len(body)/8+1, make([]uint16, len(body)/8+1)
	cases["one feature too many"] = h
	h.NFeature = -1
	cases["negative features"] = h
	for name, h := range cases {
		data := craft(t, h, body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: %d bytes allocated before the declared size was refused", name, got)
		}
	}
}

// TestReadBinaryAllocs pins the decoder's shape by count: the header, the
// Model and a fixed set of arrays — no per-tree allocation, so ten times
// the trees costs only what encoding/json spends growing the header's
// tree_lens.
func TestReadBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rows, y := synth(400, 0.05, 23)
	allocs := map[int]float64{}
	for _, trees := range []int{8, 80} {
		p := DefaultParams()
		p.NumTrees, p.MaxDepth = trees, 5
		m, err := Train(p, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		data := binaryOf(t, m)
		allocs[trees] = testing.AllocsPerRun(20, func() {
			if _, err := ReadBinary(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[80] > 24 {
		t.Errorf("ReadBinary of an 80-tree model: %v allocations, want <= 24", allocs[80])
	}
	// append doubles tree_lens from 8 to 80 entries in at most four steps.
	if allocs[80] > allocs[8]+4 {
		t.Errorf("ReadBinary allocations grow with the trees: %v for 8, %v for 80", allocs[8], allocs[80])
	}
}

// TestReadBinaryReachesBuild: what the structural checks refuse reaches
// them through a file, with the same located error (TestBuildRejectsHostileModels
// has the whole list); a version-1 artifact is refused as a legacy one; and
// a header that is not the one encoding of its fields — a key the header no
// longer has, such as the retired "gain", or a space — is refused.
func TestReadBinaryReachesBuild(t *testing.T) {
	m := smallModel(t)
	good := binaryOf(t, m)
	f := &m.flat
	if f.feature[0] < 0 {
		t.Fatal("fixture's first node is a leaf")
	}
	nodesAt := len(good) - 4 - nodeBytes*len(f.feature)
	gainEnd := nodesAt
	for _, e := range f.edges {
		gainEnd -= 8 * len(e)
	}
	cutAt := gainEnd + 8*int(f.cut[0]) // node 0's threshold
	for _, e := range f.edges[:f.feature[0]] {
		cutAt += 8 * len(e)
	}
	poke := func(at int, v uint64, width int) []byte {
		bad := append([]byte(nil), good...)
		if width == 4 {
			binary.LittleEndian.PutUint32(bad[at:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(bad[at:], v)
		}
		return reseal(bad)
	}
	type refusal struct {
		data []byte
		want string
	}
	cases := map[string]refusal{
		"self-loop child":    {poke(nodesAt+4, 0, 4), "tree 0 node 0"},
		"feature range":      {poke(nodesAt, uint64(m.NumFeatures()), 4), "tree 0 node 0"},
		"infinite threshold": {poke(cutAt, math.Float64bits(math.Inf(1)), 8), "threshold"},
		"NaN unused value":   {poke(nodesAt+13, math.Float64bits(math.NaN()), 8), "tree 0 node 0"},
		"negative gain":      {poke(gainEnd-8, math.Float64bits(-1), 8), "gain"},
		"other magic":        {reseal(append([]byte("IOTAX_NN"), good[8:]...)), "artifact"},
	}
	h := m.header()
	h.TreeLens, h.EdgeLens = []uint32{1}, make([]uint16, m.NumFeatures())
	leaf := make([]byte, 8*m.NumFeatures()+nodeBytes)
	binary.LittleEndian.PutUint32(leaf[8*m.NumFeatures():], math.MaxUint32) // feature -1
	if _, err := ReadBinary(craft(t, h, leaf)); err != nil {
		t.Fatalf("hand-made single-leaf artifact refused: %v", err)
	}
	h.Version = serializationVersion + 1
	cases["future version"] = refusal{craft(t, h, leaf), "version"}
	h.Version = serializationVersion
	canon := craft(t, h, leaf)
	hlen := int(binary.LittleEndian.Uint32(canon[8:]))
	rewrite := func(old, new string) []byte {
		hdr := strings.Replace(string(canon[12:12+hlen]), old, new, 1)
		b := append([]byte(binMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))...)
		return modelfile.Seal(append(append(b, hdr...), leaf...))
	}
	cases["retired gain key"] = refusal{rewrite(`"tree_lens"`, `"gain":null,"tree_lens"`), "canonical"}
	cases["non-canonical header"] = refusal{rewrite(`"version":`, `"version": `), "canonical"}
	// JSON has no non-finite number: a bias past float64's range is refused
	// as it is decoded.
	cases["infinite bias"] = refusal{rewrite(`"n_feature"`, `"bias":1e999,"n_feature"`), "decoding header"}
	for name, c := range cases {
		_, err := ReadBinary(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
	// A version-1 header (no edge_lens) over its gain and one 28-byte leaf.
	h1 := h
	h1.Version, h1.EdgeLens = 1, nil
	v1 := make([]byte, 8*m.NumFeatures()+28)
	binary.LittleEndian.PutUint32(v1[8*m.NumFeatures():], math.MaxUint32)
	if _, err := ReadBinary(craft(t, h1, v1)); !errors.Is(err, ErrLegacyFormat) {
		t.Errorf("version-1 artifact: got %v, want ErrLegacyFormat", err)
	}
}

// FuzzReadBinary hardens the decoder against hostile or truncated files: the
// serving registry (and its live reloader) feed whatever is on disk into
// ReadBinary, so any input is refused with an error — never a panic, never a
// loop — or is a model checkAccepted holds for. Each input is tried as given and with its checksum recomputed,
// which is how the fuzzer gets past the checksum to the length arithmetic
// and build. Checked-in seeds live in testdata/fuzz/FuzzReadBinary.
func FuzzReadBinary(f *testing.F) {
	good := binaryOf(f, smallModel(f))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:11])
	f.Add([]byte(binMagic))
	grown := append([]byte(nil), good...)
	f.Add(append(grown, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, reseal(data))
		}
		for _, in := range inputs {
			m, err := ReadBinary(in)
			if err != nil {
				if m != nil {
					t.Fatal("ReadBinary returned a model alongside an error")
				}
				continue
			}
			checkAccepted(t, in, m)
		}
	})
}

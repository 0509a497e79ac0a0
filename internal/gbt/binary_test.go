package gbt

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
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

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkAccepted is what must hold of anything ReadBinary accepts: it is the
// one encoding of its model, the flat engine agrees with the tree walk on
// it, and it says what the JSON form of the same model says. (JSON drops the
// sign of a zero it omits, so that comparison is by value, not by bits.)
func checkAccepted(t *testing.T, data []byte, m *Model) {
	t.Helper()
	if again := binaryOf(t, m); !bytes.Equal(again, data) {
		t.Fatalf("accepted artifact re-encodes differently (%d bytes in, %d out)", len(data), len(again))
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatalf("accepted model cannot be written as JSON: %v", err)
	}
	viaJSON, err := ReadJSON(&js)
	if err != nil {
		t.Fatalf("accepted model is refused by the JSON path: %v", err)
	}
	probe, _ := synth(40, 0.3, 5)
	rows := make([][]float64, len(probe))
	for i := range probe {
		rows[i] = make([]float64, m.NumFeatures())
		for j := range rows[i] {
			rows[i][j] = probe[i][j%len(probe[i])]
		}
	}
	want, flat := m.PredictAll(rows), m.Compile().PredictAll(rows)
	for i, row := range rows {
		if math.Float64bits(want[i]) != math.Float64bits(flat[i]) {
			t.Fatalf("row %d: tree walk %v, flat %v", i, want[i], flat[i])
		}
		if got := viaJSON.Predict(row); !sameFloat(got, want[i]) {
			t.Fatalf("row %d: binary %v, JSON %v", i, want[i], got)
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
func craft(t *testing.T, h binHeader, body []byte) []byte {
	t.Helper()
	b, err := modelfile.Begin(binMagic, h, len(body))
	if err != nil {
		t.Fatal(err)
	}
	return modelfile.Seal(append(b, body...))
}

// TestReadBinaryChecksSizesBeforeAllocating: a header may declare four
// billion nodes or features; the file does not hold them, and the decoder
// must find that out from the lengths alone.
func TestReadBinaryChecksSizesBeforeAllocating(t *testing.T) {
	m := smallModel(t)
	h := binHeader{jsonModel: m.header()}
	body := make([]byte, 8*m.nFeature+nodeBytes)
	cases := map[string]binHeader{}
	h.TreeLens = []uint32{math.MaxUint32, math.MaxUint32, 1}
	cases["nodes"] = h
	h.TreeLens, h.NFeature = []uint32{1}, math.MaxInt64/8
	cases["features"] = h
	h.NFeature = len(body)/8 + 1
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

// TestReadBinaryAllocs pins the decoder's shape by count: the header, the gain
// vector, one node block, the tree table and the Model — no per-tree
// allocation, so ten times the trees costs only what encoding/json spends
// growing the header's tree_lens.
func TestReadBinaryAllocs(t *testing.T) {
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

// TestReadBinaryReachesBuild: what ReadJSON refuses, ReadBinary refuses with
// the same located error, because both end in build; and what only a binary
// file can say (non-finite numbers, a header carrying more than a header)
// is refused too.
func TestReadBinaryReachesBuild(t *testing.T) {
	m := smallModel(t)
	good := binaryOf(t, m)
	gainEnd := len(good) - 4 - nodeBytes*(len(m.trees[0].nodes)+len(m.trees[1].nodes)+len(m.trees[2].nodes))
	node0 := good[gainEnd : gainEnd+nodeBytes]
	if int32(binary.LittleEndian.Uint32(node0)) < 0 {
		t.Fatal("fixture's first node is a leaf")
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
		"self-loop child":    {poke(gainEnd+4, 0, 4), "tree 0 node 0"},
		"feature range":      {poke(gainEnd, uint64(m.nFeature), 4), "tree 0 node 0"},
		"infinite threshold": {poke(gainEnd+12, math.Float64bits(math.Inf(1)), 8), "tree 0 node 0"},
		"NaN unused value":   {poke(gainEnd+20, math.Float64bits(math.NaN()), 8), "tree 0 node 0"},
		"negative gain":      {poke(gainEnd-8, math.Float64bits(-1), 8), "gain"},
		"other magic":        {reseal(append([]byte("IOTAX_NN"), good[8:]...)), "artifact"},
	}
	h := binHeader{jsonModel: m.header(), TreeLens: []uint32{1}}
	leaf := make([]byte, 8*m.nFeature+nodeBytes)
	binary.LittleEndian.PutUint32(leaf[8*m.nFeature:], math.MaxUint32) // feature -1
	if _, err := ReadBinary(craft(t, h, leaf)); err != nil {
		t.Fatalf("hand-made single-leaf artifact refused: %v", err)
	}
	h.Version = serializationVersion + 1
	cases["future version"] = refusal{craft(t, h, leaf), "version"}
	h.Version, h.Gain = serializationVersion, make([]float64, m.nFeature)
	cases["gain in header"] = refusal{craft(t, h, leaf), "header"}
	// The same header with a space after a colon: valid JSON, not canonical.
	canon := craft(t, binHeader{jsonModel: m.header(), TreeLens: []uint32{1}}, leaf)
	hlen := int(binary.LittleEndian.Uint32(canon[8:]))
	spaced := strings.Replace(string(canon[12:12+hlen]), `"version":`, `"version": `, 1)
	loose := append([]byte(binMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(spaced)))...)
	loose = modelfile.Seal(append(append(loose, spaced...), leaf...))
	cases["non-canonical header"] = refusal{loose, "canonical"}
	for name, c := range cases {
		_, err := ReadBinary(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// The trailing-garbage bug: Decoder.Decode stops at the closing brace, so a
// model file followed by anything used to load.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := smallModel(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if !strings.HasSuffix(good, "\n") {
		t.Fatal("WriteJSON no longer ends in a newline")
	}
	if _, err := ReadJSON(strings.NewReader(good + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range []string{"x", "{}", "}", `{"version":1}`, "0"} {
		if m, err := ReadJSON(strings.NewReader(good + tail)); err == nil || m != nil {
			t.Errorf("model followed by %q accepted", tail)
		}
	}
}

// FuzzReadBinary hardens the binary decoder as FuzzReadJSON does the JSON
// one: any input is refused with an error or is a model checkAccepted
// holds for. Each input is tried as given and with its checksum recomputed,
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

package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
	"iotaxo/internal/rng"
)

// smallModel trains a 2-3-2 heteroscedastic network: 17 numbers, so the
// corruption tests can afford every bit and every length of its artifact.
func smallModel(t testing.TB) (*Model, [][]float64) {
	t.Helper()
	r := rng.New(3)
	rows := make([][]float64, 60)
	y := make([]float64, len(rows))
	for i := range rows {
		rows[i] = []float64{r.Norm(), r.Norm()}
		y[i] = rows[i][0] - 2*rows[i][1] + 0.1*r.Norm()
	}
	p := DefaultParams()
	p.Hidden = []int{3}
	p.Epochs = 2
	p.Heteroscedastic = true
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	return m, rows
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
// re-encodes to the same bytes (one model, one encoding) and predicts finite
// values on finite rows.
func checkAccepted(t *testing.T, data []byte, m *Model) {
	t.Helper()
	if again := binaryOf(t, m); !bytes.Equal(again, data) {
		t.Fatalf("accepted artifact re-encodes differently (%d bytes in, %d out)", len(data), len(again))
	}
	r := rng.New(9)
	for i := 0; i < 20; i++ {
		row := make([]float64, m.nIn)
		for j := range row {
			row[j] = r.Norm()
		}
		// The variance head may overflow to +Inf on a hostile weight; the
		// mean must not, and neither may be NaN.
		if mu, v := m.PredictDist(row); math.IsNaN(mu) || math.IsNaN(v) {
			t.Fatalf("row %d: accepted model predicts (%v,%v) on a finite row", i, mu, v)
		}
	}
}

func TestModelBinaryRoundTrip(t *testing.T) {
	m, rows := serializeFixture(t)
	data := binaryOf(t, m)
	back, err := ReadBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		mu, v := m.PredictDist(rows[i])
		bmu, bv := back.PredictDist(rows[i])
		if math.Float64bits(mu) != math.Float64bits(bmu) || math.Float64bits(v) != math.Float64bits(bv) {
			t.Fatalf("row %d: (%v,%v) != (%v,%v) after round trip", i, mu, v, bmu, bv)
		}
	}
	if back.Params().Heteroscedastic != m.Params().Heteroscedastic {
		t.Error("params changed")
	}
	checkAccepted(t, data, back)
}

// TestReadBinaryDetectsEveryFlipAndTruncation is the bundle row of the
// corruption table for an ensemble member: no single flipped bit and no
// truncated file is masked or served. With the checksum recomputed over the
// flipped byte the file is either refused by the structural checks or is a
// well-formed model.
func TestReadBinaryDetectsEveryFlipAndTruncation(t *testing.T) {
	m, _ := smallModel(t)
	data := binaryOf(t, m)
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
	// A weight's low mantissa bits are a different, equally valid model.
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

// TestReadBinaryChecksSizesBeforeAllocating: a layer may declare a shape
// whose product overflows or merely exceeds the file; the decoder must find
// that out without multiplying and without allocating the weights.
func TestReadBinaryChecksSizesBeforeAllocating(t *testing.T) {
	m, _ := smallModel(t)
	good := binaryOf(t, m)
	h := m.header()
	body := good[len(good)-4-8*17 : len(good)-4]
	if _, err := ReadBinary(craft(t, h, body)); err != nil {
		t.Fatalf("hand-made artifact refused: %v", err)
	}
	shapes := map[string][2]int{
		"overflowing product": {math.MaxInt64/2 + 1, 4},
		"huge":                {1 << 40, 1 << 20},
		"one row too many":    {3, 3},
		"negative":            {-2, 3},
		"zero width":          {2, 0},
	}
	for name, shape := range shapes {
		bad := m.header()
		bad.Layers[0].In, bad.Layers[0].Out = shape[0], shape[1]
		data := craft(t, bad, body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: %d bytes allocated before the declared shape was refused", name, got)
		}
	}
	if _, err := ReadBinary(craft(t, h, append(append([]byte(nil), body...), make([]byte, 8)...))); err == nil {
		t.Error("bytes after the last layer accepted")
	}
}

// TestReadBinaryReachesBuild: what build refuses reaches it through a file
// (TestBuildRejectsMalformedModels has the whole list), and a header that
// carries a key it no longer has — the retired per-layer weights — is not
// the one encoding of its fields.
func TestReadBinaryReachesBuild(t *testing.T) {
	m, _ := smallModel(t)
	good := binaryOf(t, m)
	body := good[len(good)-4-8*17 : len(good)-4]
	nanWeight := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(nanWeight[len(good)-4-8*17:], math.Float64bits(math.NaN()))
	infBias := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(infBias[len(good)-4-8:], math.Float64bits(math.Inf(-1)))
	type refusal struct {
		data []byte
		want string
	}
	cases := map[string]refusal{
		"NaN weight":    {reseal(nanWeight), "non-finite weight"},
		"infinite bias": {reseal(infBias), "non-finite bias"},
		"other magic":   {reseal(append([]byte("IOTAXGBT"), good[8:]...)), "artifact"},
	}
	edit := func(f func(h *binHeader)) []byte {
		h := m.header()
		f(&h)
		return craft(t, h, body)
	}
	add := func(name, want string, f func(h *binHeader)) {
		cases[name] = refusal{edit(f), want}
	}
	add("future version", "version", func(h *binHeader) { h.Version++ })
	add("zero y std", "target statistics", func(h *binHeader) { h.YStd = 0 })
	add("bad params", "params", func(h *binHeader) { h.Params.Epochs = 0 })
	// 2-3-2 re-cut as 2-1-7: the same 17 numbers, a broken chain.
	add("topology", "layer 0 is", func(h *binHeader) {
		h.Layers[0].Out, h.Layers[1].In, h.Layers[1].Out = 1, 1, 7
	})
	hlen := int(binary.LittleEndian.Uint32(good[8:]))
	hdr := strings.Replace(string(good[12:12+hlen]), `"out":2}`, `"out":2,"w":null,"b":null}`, 1)
	retired := append([]byte(binMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))...)
	cases["retired weight keys"] = refusal{modelfile.Seal(append(append(retired, hdr...), body...)), "canonical"}
	for name, c := range cases {
		_, err := ReadBinary(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// FuzzReadBinary: any input is refused with an error or is a model
// checkAccepted holds for. Each input is tried as given and with its
// checksum recomputed, which is how the fuzzer gets past the checksum to
// the shape arithmetic and build. Checked-in seeds live in
// testdata/fuzz/FuzzReadBinary.
func FuzzReadBinary(f *testing.F) {
	m, _ := smallModel(f)
	good := binaryOf(f, m)
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

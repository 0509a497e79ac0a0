package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
	"iotaxo/internal/nn"
)

// gbtNode is one node of a hand-laid-out gbt artifact: feature (-1 for a
// leaf), tree-local child links, cut into its feature's thresholds, and a
// leaf's value.
type gbtNode struct {
	feature     int32
	left, right uint32
	cut         uint8
	leaf        float64
}

// gbtArtifact lays a model out and writes it as gbt.WriteBinary would: the
// header's params and bias are those of a one-tree, two-bin model with
// learning rate 0.1 and bias 0.5, n_feature is len(edges), the gain is all
// zeros and edges[f] are feature f's thresholds. It writes any layout,
// including ones ReadBinary refuses.
func gbtArtifact(t testing.TB, edges [][]float64, trees ...[]gbtNode) []byte {
	t.Helper()
	treeLens, edgeLens := make([]string, len(trees)), make([]string, len(edges))
	size := 8 * len(edges)
	for i, tr := range trees {
		treeLens[i], size = fmt.Sprint(len(tr)), size+21*len(tr)
	}
	for f, e := range edges {
		edgeLens[f], size = fmt.Sprint(len(e)), size+8*len(e)
	}
	header := fmt.Sprintf(`{"version":2,"params":{"NumTrees":%d,"MaxDepth":1,"LearningRate":0.1,`+
		`"Subsample":1,"ColSample":1,"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},`+
		`"bias":0.5,"n_feature":%d,"tree_lens":[%s],"edge_lens":[%s]}`,
		len(trees), len(edges), strings.Join(treeLens, ","), strings.Join(edgeLens, ","))
	b, err := modelfile.Begin("IOTAXGBT", json.RawMessage(header), size)
	if err != nil {
		t.Fatal(err)
	}
	b = modelfile.AppendFloat64s(b, make([]float64, len(edges)))
	for _, e := range edges {
		b = modelfile.AppendFloat64s(b, e)
	}
	le := binary.LittleEndian
	for _, tr := range trees {
		for _, n := range tr {
			b = append(le.AppendUint32(le.AppendUint32(le.AppendUint32(b, uint32(n.feature)), n.left), n.right), n.cut)
			b = modelfile.AppendFloat64s(b, []float64{n.leaf})
		}
	}
	return modelfile.Seal(b)
}

// fuzzModel is a minimal valid gbt artifact: one single-leaf tree of 0.25
// over two features, so it predicts 0.5 + 0.1·0.25 on any row.
func fuzzModel(t testing.TB) []byte {
	return gbtArtifact(t, make([][]float64, 2), []gbtNode{{feature: -1, leaf: 0.25}})
}

// stumpsModel is a gbt artifact over fuzzManifest's two columns with n
// one-split trees, tree k splitting column a at k: n distinct thresholds on
// one feature, one more than the flat walk codes when n is 256.
func stumpsModel(t testing.TB, n int) []byte { return stumpsOver(t, n, 2) }

// stumpsOver is stumpsModel over a schema of features columns.
func stumpsOver(t testing.TB, n, features int) []byte {
	edges := make([][]float64, features)
	trees := make([][]gbtNode, n)
	for k := range n {
		edges[0] = append(edges[0], float64(k))
		trees[k] = []gbtNode{{left: 1, right: 2, cut: uint8(k)}, {feature: -1, leaf: 0.25}, {feature: -1, leaf: -0.25}}
	}
	return gbtArtifact(t, edges, trees...)
}

// nnArtifact is a hand-laid-out ensemble member over fuzzBundle's two
// columns, as nn.WriteBinary writes one: one hidden unit, a mean head,
// weights and biases of scale, so two members of different scales disagree.
func nnArtifact(t testing.TB, scale float64) []byte {
	t.Helper()
	type layer struct {
		In  int `json:"in"`
		Out int `json:"out"`
	}
	header := struct {
		Version int       `json:"version"`
		Params  nn.Params `json:"params"`
		NIn     int       `json:"n_in"`
		YMean   float64   `json:"y_mean"`
		YStd    float64   `json:"y_std"`
		Layers  []layer   `json:"layers"`
	}{1, nn.Params{Hidden: []int{1}, LearningRate: 0.001, Epochs: 1, BatchSize: 1, Seed: 1}, 2, 0, 1, []layer{{2, 1}, {1, 1}}}
	weights := []float64{scale, -scale, 0.5 * scale, scale, 0}
	b, err := modelfile.Begin("IOTAX_NN", header, 8*len(weights))
	if err != nil {
		t.Fatal(err)
	}
	return modelfile.Seal(modelfile.AppendFloat64s(b, weights))
}

// fuzzBundle is a minimal valid bundle: fuzzModel over two columns, no
// reference, no ensemble.
func fuzzBundle(t testing.TB) manifest {
	return manifest{System: "theta", Version: 1, Guard: GuardConfig{EUThreshold: 0.5},
		columns: []string{"a", "b"}, model: fuzzModel(t)}
}

// guardedBundle is fuzzBundle with every optional part: a reference
// histogram, a two-member ensemble and its scaler.
func guardedBundle(t testing.TB) manifest {
	m := fuzzBundle(t)
	m.reference = referenceBinary(t, []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{3, 4}}})
	m.members = [][]byte{nnArtifact(t, 1), nnArtifact(t, 2)}
	m.ScalerLog, m.mean, m.std = true, []float64{0, 1}, []float64{1, 2}
	return m
}

// sealed is m as the bytes of a bundle file.
func sealed(t testing.TB, m manifest) []byte {
	t.Helper()
	b, err := sealBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeBundle writes m sealed as dir's bundle.bin: how a test writes a
// bundle by hand.
func writeBundle(t testing.TB, dir string, m manifest) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bundleName), sealed(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteBundle reseals dir's bundle with edit applied: a hostile bundle
// that still passes its container checksum.
func rewriteBundle(t testing.TB, dir string, edit func(m *manifest)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, bundleName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := openBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	edit(&m)
	writeBundle(t, dir, m)
}

// withHeader is the sealed bundle raw with its container header replaced by
// header, the body kept and the checksum recomputed.
func withHeader(raw []byte, header string) []byte {
	hlen := int(binary.LittleEndian.Uint32(raw[8:]))
	b := binary.LittleEndian.AppendUint32([]byte(bundleMagic), uint32(len(header)))
	b = append(append(b, header...), raw[12+hlen:len(raw)-4]...)
	return modelfile.Seal(b)
}

// resealedBundle is raw with its checksums recomputed, so a fuzzed bundle
// reaches the checks behind them: each section's, where the container
// opens once resealed, and the container's.
func resealedBundle(raw []byte) []byte {
	if len(raw) < 4 {
		return raw
	}
	m, err := openBundle(resealed(raw))
	if err != nil {
		return resealed(raw)
	}
	for _, section := range append([][]byte{m.model, m.reference}, m.members...) {
		if len(section) >= 4 {
			copy(section, resealed(section))
		}
	}
	if b, err := sealBundle(m); err == nil {
		return b
	}
	return resealed(raw)
}

// FuzzLoadVersionDir hardens the registry's trust boundary: version
// directories arrive from disk (startup load and live reload), so a
// truncated or hostile bundle.bin must produce an error — never a panic,
// and never a bundle that fails validation. Each input is tried as given and
// resealed — the sections' checksums and the container's recomputed, as
// FuzzReadBinary does — so the fuzzer reaches the checks behind them. The
// seeds are small hand-laid-out bundles, so that a new input is minimized
// in milliseconds; checked-in seeds live in testdata/fuzz/FuzzLoadVersionDir.
func FuzzLoadVersionDir(f *testing.F) {
	seal := func(edit func(m *manifest)) []byte {
		m := fuzzBundle(f)
		edit(&m)
		return sealed(f, m)
	}
	valid := seal(func(*manifest) {})
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated bundle
	f.Add(seal(func(m *manifest) { m.model = m.model[:len(m.model)/2] }))
	// The header a six-file manifest had: named, pinned artifacts.
	f.Add(withHeader(valid, `{"system":"theta","version":1,"model":{"name":"../../etc/passwd","crc32c":0},"guard":{}}`))
	f.Add(seal(func(m *manifest) { m.System = "cori" }))
	f.Add(seal(func(m *manifest) { m.Version = 7 }))
	f.Add(seal(func(m *manifest) { m.columns = []string{"a"} }))
	f.Add(seal(func(m *manifest) {
		m.members = [][]byte{[]byte("not a network")}
		m.mean, m.std = []float64{0, 0}, []float64{1, 1}
	}))
	f.Add([]byte(`{not json`))
	// A manifest as it was written before it was sealed.
	f.Add([]byte(`{"system":"theta","version":1,"columns":["a","b"],"model":"model.gbt.bin","guard":{}}`))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	f.Add(seal(func(m *manifest) { m.reference = guardedBundle(f).reference }))
	f.Add(seal(func(m *manifest) { m.ScalerLog = true })) // a scaler with no ensemble
	f.Add(seal(func(m *manifest) { m.model = guardedBundle(f).reference }))
	// Section lengths past the body.
	f.Add(withHeader(valid, `{"system":"theta","version":1,"guard":{"eu_threshold":0.5,"noise_sigma_log":0,"noise_floor_pct":0},"model_bytes":4611686018427387904}`))
	f.Add(sealed(f, guardedBundle(f)))

	dir := filepath.Join(f.TempDir(), "v1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatal(err)
	}
	var buf []byte // every load reuses it, as LoadRegistry's do
	f.Fuzz(func(t *testing.T, raw []byte) {
		try := func(raw []byte) {
			if err := os.WriteFile(filepath.Join(dir, bundleName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			mv, err := loadVersionDir(dir, "theta", 1, &buf)
			if err != nil {
				if mv != nil {
					t.Fatal("loadVersionDir returned a bundle alongside an error")
				}
				return
			}
			// The loader is the trust boundary: anything it accepts must pass
			// full validation and be registrable.
			if verr := mv.validate(); verr != nil {
				t.Fatalf("loadVersionDir accepted an invalid bundle: %v", verr)
			}
			if mv.System != "theta" || mv.Version != 1 {
				t.Fatalf("accepted bundle claims %s v%d from theta/v1", mv.System, mv.Version)
			}
			if err := NewRegistry().Add(mv); err != nil {
				t.Fatalf("accepted bundle rejected by registry: %v", err)
			}
		}
		try(raw)
		try(resealedBundle(raw))
	})
}

// TestFuzzSeedsReachAcceptPath: the checked-in FuzzLoadVersionDir seeds
// named for a valid bundle are ones, so the fuzzer starts from the accept
// path.
func TestFuzzSeedsReachAcceptPath(t *testing.T) {
	for _, seed := range []string{"seed_valid", "seed_valid_binary"} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzLoadVersionDir", seed))
		if err != nil {
			t.Fatal(err)
		}
		arg, _ := strings.CutPrefix(strings.Split(string(raw), "\n")[1], "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		if _, err := decodeBundle([]byte(s), "theta", 1); err != nil {
			t.Errorf("%s: %v", seed, err)
		}
	}
}

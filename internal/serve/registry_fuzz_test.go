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

// fuzzManifest matches fuzzModel: two columns, no ensemble.
func fuzzManifest() manifest {
	return manifest{System: "theta", Version: 1, Columns: []string{"a", "b"},
		Model: artifactRef{Name: gbtModelName}, Guard: GuardConfig{EUThreshold: 0.5}}
}

// pinArtifacts pins each artifact m names to the checksum trailer of the
// file of that name in dir, where there is one.
func pinArtifacts(dir string, m *manifest) {
	refs := []*artifactRef{&m.Model, m.ReferenceFile}
	for i := range m.Ensemble {
		refs = append(refs, &m.Ensemble[i])
	}
	for _, ref := range refs {
		if ref == nil || !filepath.IsLocal(ref.Name) {
			continue
		}
		if raw, err := os.ReadFile(filepath.Join(dir, ref.Name)); err == nil && len(raw) >= 4 {
			ref.CRC32 = binary.LittleEndian.Uint32(raw[len(raw)-4:])
		}
	}
}

// sealManifest publishes m as dir's manifest, its artifacts pinned to the
// files in dir: how a test writes a bundle by hand, or re-pins one whose
// artifact it has edited.
func sealManifest(t testing.TB, dir string, m manifest) {
	t.Helper()
	pinArtifacts(dir, &m)
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// repin re-seals dir's manifest with edit applied (nil for none), its pins
// taken from the artifacts now in dir: a hostile manifest that still passes
// its checksum, or one re-pinned to an artifact a test has edited.
func repin(t testing.TB, dir string, edit func(m *manifest)) {
	t.Helper()
	m, err := readManifest(dir, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&m)
	}
	sealManifest(t, dir, m)
}

// writeBundle writes files into dir and then m, sealed over them.
func writeBundle(t testing.TB, dir string, m manifest, files map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sealManifest(t, dir, m)
}

// sealedManifest is m as the bytes of a manifest file, pinned to the files
// in dir.
func sealedManifest(t testing.TB, dir string, m manifest) []byte {
	t.Helper()
	out := t.TempDir()
	pinArtifacts(dir, &m)
	if err := writeManifest(out, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(out, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// repinned is the manifest file raw with its artifact pins taken from the
// files in dir and its checksum recomputed, so a fuzzed manifest reaches the
// checks behind both. A header that does not decode as a manifest is only
// resealed; one that does is re-encoded canonically under raw's magic.
func repinned(raw []byte, dir string) []byte {
	if len(raw) < 4 {
		return raw
	}
	var m manifest
	if len(raw) < 16 || uint64(binary.LittleEndian.Uint32(raw[8:])) > uint64(len(raw)-16) {
		return resealed(raw)
	}
	hlen := int(binary.LittleEndian.Uint32(raw[8:]))
	if json.Unmarshal(raw[12:12+hlen], &m) != nil {
		return resealed(raw)
	}
	pinArtifacts(dir, &m)
	b, err := modelfile.Begin(string(raw[:8]), m, 0)
	if err != nil {
		return resealed(raw)
	}
	return modelfile.Seal(append(b, raw[12+hlen:len(raw)-4]...))
}

// FuzzLoadVersionDir hardens the registry's trust boundary: version
// directories arrive from disk (startup load and live reload), so a
// truncated or hostile manifest/model pair must produce an error — never a
// panic, and never a bundle that fails validation. Each input is tried as
// given and resealed: the model's checksum, the manifest's pins and its
// checksum recomputed, as FuzzReadBinary does, so the fuzzer reaches the
// checks behind them. Checked-in seeds live in
// testdata/fuzz/FuzzLoadVersionDir.
func FuzzLoadVersionDir(f *testing.F) {
	mod := fuzzModel(f)
	refBin := referenceBinary(f, []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{3, 4}}})
	files := f.TempDir()
	for name, body := range map[string][]byte{gbtModelName: mod, referenceName: refBin} {
		if err := os.WriteFile(filepath.Join(files, name), body, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	seal := func(edit func(m *manifest)) []byte {
		m := fuzzManifest()
		edit(&m)
		return sealedManifest(f, files, m)
	}
	man := seal(func(*manifest) {})
	f.Add(man, mod)
	f.Add(man[:len(man)/2], mod) // truncated manifest
	f.Add(man, mod[:len(mod)/2]) // truncated model
	f.Add(seal(func(m *manifest) { m.Model.Name = "../../etc/passwd" }), mod)
	f.Add(seal(func(m *manifest) { m.System = "cori" }), mod)
	f.Add(seal(func(m *manifest) { m.Version = 7 }), mod)
	f.Add(seal(func(m *manifest) { m.Columns = []string{"a"} }), mod)
	f.Add(seal(func(m *manifest) {
		m.Ensemble = []artifactRef{{Name: "member_0.nn.bin"}}
		m.mean, m.std = []float64{0, 0}, []float64{1, 1}
	}), mod)
	f.Add([]byte(`{not json`), []byte(`{not json`))
	// The manifest as it was written before it was sealed.
	f.Add([]byte(`{"system":"theta","version":1,"columns":["a","b"],"model":"model.gbt.bin","guard":{}}`), mod)
	flipped := append([]byte(nil), man...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped, mod)
	f.Add(seal(func(m *manifest) { m.ReferenceFile = &artifactRef{Name: referenceName} }), mod)
	f.Add(seal(func(m *manifest) { m.ReferenceFile = &artifactRef{Name: "gone.bin"} }), mod)
	f.Add(seal(func(m *manifest) { m.ScalerLog = true }), mod) // a scaler with no ensemble
	f.Add(man, refBin)                                         // another artifact under the model's name
	f.Add(man, stumpsModel(f, 256))                            // more thresholds than the flat walk codes

	f.Fuzz(func(t *testing.T, manifestRaw, model []byte) {
		dir := filepath.Join(t.TempDir(), "v1")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// The model under its name, and a reference artifact for a manifest
		// to name.
		for name, body := range map[string][]byte{gbtModelName: model, referenceName: refBin} {
			if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		try := func(manifestRaw []byte) {
			if err := os.WriteFile(filepath.Join(dir, manifestName), manifestRaw, 0o644); err != nil {
				t.Fatal(err)
			}
			mv, err := loadVersionDir(dir, "theta", new([2][]byte))
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
		try(manifestRaw)
		if len(model) >= 4 {
			if err := os.WriteFile(filepath.Join(dir, gbtModelName), resealed(model), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		try(repinned(manifestRaw, dir))
	})
}

// TestFuzzSeedsReachAcceptPath: the checked-in FuzzLoadVersionDir seeds
// named for a valid bundle are ones, laid out as the fuzz target lays them
// out, so the fuzzer starts from the accept path.
func TestFuzzSeedsReachAcceptPath(t *testing.T) {
	refBin := referenceBinary(t, []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{3, 4}}})
	for _, seed := range []string{"seed_valid", "seed_valid_binary"} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzLoadVersionDir", seed))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		var args [2][]byte
		for i := range args {
			arg, _ := strings.CutPrefix(lines[1+i], "[]byte(")
			s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				t.Fatalf("%s: argument %d: %v", seed, i, err)
			}
			args[i] = []byte(s)
		}
		dir := filepath.Join(t.TempDir(), "v1")
		writeBundle(t, dir, fuzzManifest(), map[string][]byte{gbtModelName: args[1], referenceName: refBin})
		if err := os.WriteFile(filepath.Join(dir, manifestName), args[0], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadVersionDir(dir, "theta", new([2][]byte)); err != nil {
			t.Errorf("%s: %v", seed, err)
		}
	}
}

package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
)

// fuzzModelHeader is the header of a minimal valid gbt artifact: one
// single-leaf tree over two features.
const fuzzModelHeader = `{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,` +
	`"Subsample":1,"ColSample":1,"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},` +
	`"bias":0.5,"n_feature":2,"tree_lens":[1]}`

// fuzzModel is that artifact: gain 0, 0 and a leaf of 0.25, so it predicts
// 0.5 + 0.1·0.25 on any row.
func fuzzModel(t testing.TB) []byte {
	t.Helper()
	b, err := modelfile.Begin("IOTAXGBT", json.RawMessage(fuzzModelHeader), 2*8+28)
	if err != nil {
		t.Fatal(err)
	}
	b = modelfile.AppendFloat64s(b, []float64{0, 0})
	b = binary.LittleEndian.AppendUint32(b, math.MaxUint32) // feature -1: a leaf
	b = append(b, make([]byte, 4+4+8)...)                   // left, right, threshold
	return modelfile.Seal(modelfile.AppendFloat64s(b, []float64{0.25}))
}

// stumpsModel is a gbt artifact over fuzzManifest's two columns with n
// one-split trees, tree k splitting column a at k: n distinct thresholds on
// one feature, one more than the flat walk codes when n is 256.
func stumpsModel(t testing.TB, n int) []byte { return stumpsOver(t, n, 2) }

// stumpsOver is stumpsModel over a schema of features columns.
func stumpsOver(t testing.TB, n, features int) []byte {
	t.Helper()
	lens := strings.TrimSuffix(strings.Repeat("3,", n), ",")
	header := strings.NewReplacer(`"NumTrees":1`, fmt.Sprintf(`"NumTrees":%d`, n),
		`"n_feature":2`, fmt.Sprintf(`"n_feature":%d`, features), `"tree_lens":[1]`, `"tree_lens":[`+lens+`]`).Replace(fuzzModelHeader)
	b, err := modelfile.Begin("IOTAXGBT", json.RawMessage(header), 8*features+3*28*n)
	if err != nil {
		t.Fatal(err)
	}
	b = modelfile.AppendFloat64s(b, make([]float64, features))
	le := binary.LittleEndian
	for k := 0; k < n; k++ {
		b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), 1), 2) // column 0, children 1 and 2
		b = modelfile.AppendFloat64s(b, []float64{float64(k), 0})
		for _, v := range []float64{0.25, -0.25} {
			b = le.AppendUint32(b, math.MaxUint32) // a leaf
			b = append(b, make([]byte, 4+4)...)
			b = modelfile.AppendFloat64s(b, []float64{0, v})
		}
	}
	return modelfile.Seal(b)
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
	m, err := readManifest(dir)
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
			mv, err := loadVersionDir(dir, "theta")
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

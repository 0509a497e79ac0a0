package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotaxo/internal/gbt"
)

// fuzzModelJSON is a minimal valid gbt model file: one single-leaf tree
// over two features.
const fuzzModelJSON = `{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,` +
	`"Subsample":1,"ColSample":1,"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},` +
	`"bias":0.5,"n_feature":2,"gain":[0,0],"trees":[[{"f":-1,"v":0.25}]]}`

// fuzzManifestJSON matches fuzzModelJSON: two columns, no ensemble.
const fuzzManifestJSON = `{"system":"theta","version":1,"columns":["a","b"],` +
	`"model":"model.gbt.json","guard":{"eu_threshold":0.5}}`

// fuzzModelBinary is fuzzModelJSON in the binary form.
func fuzzModelBinary(t testing.TB) []byte {
	t.Helper()
	m, err := gbt.ReadJSON(strings.NewReader(fuzzModelJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadVersionDir hardens the registry's trust boundary: version
// directories arrive from disk (startup load and live reload), so a
// truncated or hostile manifest/model pair must produce an error — never a
// panic, and never a bundle that fails validation. Checked-in seeds live
// in testdata/fuzz/FuzzLoadVersionDir.
func FuzzLoadVersionDir(f *testing.F) {
	man := []byte(fuzzManifestJSON)
	mod := []byte(fuzzModelJSON)
	f.Add(man, mod)
	f.Add(man[:len(man)/2], mod) // truncated manifest
	f.Add(man, mod[:len(mod)/2]) // truncated model
	f.Add([]byte(`{"system":"theta","version":1,"columns":["a","b"],"model":"../../etc/passwd","guard":{}}`), mod)
	f.Add([]byte(`{"system":"cori","version":1,"columns":["a","b"],"model":"model.gbt.json","guard":{}}`), mod)
	f.Add([]byte(`{"system":"theta","version":7,"columns":["a","b"],"model":"model.gbt.json","guard":{}}`), mod)
	f.Add([]byte(`{"system":"theta","version":1,"columns":["a"],"model":"model.gbt.json","guard":{}}`), mod)
	f.Add([]byte(`{"system":"theta","version":1,"columns":["a","b"],"model":"model.gbt.json",`+
		`"ensemble":["member_0.nn.json"],"guard":{}}`), mod)
	f.Add([]byte(`{not json`), []byte(`{not json`))
	binMan := []byte(strings.Replace(fuzzManifestJSON, "model.gbt.json", gbtModelName, 1))
	binMod := fuzzModelBinary(f)
	f.Add(binMan, binMod)
	f.Add(binMan, binMod[:len(binMod)-5])
	f.Add(binMan, mod) // a JSON model under the binary name
	f.Add(man, binMod) // and the reverse
	withRef := func(name string) []byte {
		return []byte(strings.Replace(fuzzManifestJSON, `"guard"`, `"reference_file":"`+name+`","guard"`, 1))
	}
	f.Add(withRef(referenceName), mod)
	f.Add(withRef("gone.bin"), mod) // names a file that is not there
	refBin := referenceBinary(f, []FeatureHist{{Name: "a", Cuts: []float64{1}, Counts: []uint64{3, 4}}})

	f.Fuzz(func(t *testing.T, manifest, model []byte) {
		dir := filepath.Join(t.TempDir(), "v1")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		// Under both names: the manifest picks the file, and with it the
		// decoder.
		for _, name := range []string{"model.gbt.json", gbtModelName} {
			if err := os.WriteFile(filepath.Join(dir, name), model, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// And a reference artifact for a manifest to name.
		if err := os.WriteFile(filepath.Join(dir, referenceName), refBin, 0o644); err != nil {
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
	})
}

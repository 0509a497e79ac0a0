package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
)

// saveVersionJSON writes mv the way SaveVersion did before the binary forms:
// every model artifact as JSON under the .json names, the reference
// histograms inline in the manifest, no reference.bin.
func saveVersionJSON(t testing.TB, root string, mv *ModelVersion) string {
	t.Helper()
	if err := SaveVersion(root, mv); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	asJSON := func(name string, write func(io.Writer) error) string {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		name = strings.TrimSuffix(name, binaryExt) + ".json"
		if err := writeBundleFile(dir, name, write); err != nil {
			t.Fatal(err)
		}
		return name
	}
	m.Model = asJSON(m.Model, mv.Model.WriteJSON)
	for i, name := range m.Ensemble {
		m.Ensemble[i] = asJSON(name, mv.Ensemble.Members[i].WriteJSON)
	}
	if m.ReferenceFile != "" {
		if err := os.Remove(filepath.Join(dir, m.ReferenceFile)); err != nil {
			t.Fatal(err)
		}
		m.Reference, m.ReferenceFile = mv.Reference, ""
	}
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBundleFormatsLoadIdentical is the differential test of the two bundle
// formats: the same bundle saved as SaveVersion writes it (binary models,
// reference.bin) and as it was written before either (JSON models, inline
// histograms) loads to models that agree bit for bit with each other — tree
// walk, flat engine and ensemble — on every fixture row, and to the same
// reference histograms. The in-memory bundle is not the reference for the
// tree models: JSON drops the sign of a zero it omits.
func TestBundleFormatsLoadIdentical(t *testing.T) {
	frame, v1, v2 := fixture(t)
	cfg := fixtureCfg()
	cfg.Trees, cfg.Depth, cfg.EnsembleSize, cfg.Epochs, cfg.Versions = 12, 7, 2, 2, 1
	v3, err := BuildVersion("theta", 3, frame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unguarded := v1.derive()
	unguarded.Version, unguarded.Ensemble, unguarded.Scaler = 4, nil, nil
	rows := frame.Rows()
	for _, mv := range []*ModelVersion{v1, v2, v3, unguarded} {
		binRoot, jsonRoot := t.TempDir(), t.TempDir()
		if err := SaveVersion(binRoot, mv); err != nil {
			t.Fatal(err)
		}
		binDir := filepath.Join(binRoot, mv.System, fmt.Sprintf("v%d", mv.Version))
		if _, err := os.Stat(filepath.Join(binDir, "model.gbt.bin")); err != nil {
			t.Fatalf("SaveVersion wrote no binary model: %v", err)
		}
		fromBin, err := loadVersionDir(binDir, mv.System)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := loadVersionDir(saveVersionJSON(t, jsonRoot, mv), mv.System)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(binDir, referenceName)); err != nil {
			t.Fatalf("SaveVersion wrote no reference artifact: %v", err)
		}
		if raw, _ := os.ReadFile(filepath.Join(binDir, manifestName)); bytes.Contains(raw, []byte(`"reference":`)) {
			t.Fatal("SaveVersion wrote the histograms inline as well")
		}
		checkSameReference(t, fromBin.Reference, fromJSON.Reference)
		checkSameReference(t, fromBin.Reference, mv.Reference)
		flatBin, flatJSON := fromBin.Flat().PredictAll(rows), fromJSON.Flat().PredictAll(rows)
		for i, row := range rows {
			b, j := fromBin.Model.Predict(row), fromJSON.Model.Predict(row)
			if math.Float64bits(b) != math.Float64bits(j) || b != mv.Model.Predict(row) {
				t.Fatalf("v%d row %d: binary %v, JSON %v, trained %v", mv.Version, i, b, j, mv.Model.Predict(row))
			}
			if math.Float64bits(flatBin[i]) != math.Float64bits(b) || math.Float64bits(flatJSON[i]) != math.Float64bits(b) {
				t.Fatalf("v%d row %d: flat binary %v, flat JSON %v, tree walk %v", mv.Version, i, flatBin[i], flatJSON[i], b)
			}
		}
		if mv.Ensemble == nil {
			if fromBin.Ensemble != nil || fromJSON.Ensemble != nil {
				t.Fatalf("v%d: an unguarded bundle loaded with an ensemble", mv.Version)
			}
			continue
		}
		scaled := make([][]float64, len(rows))
		for i, row := range rows {
			scaled[i] = make([]float64, len(row))
			if err := fromBin.Scaler.TransformRow(row, scaled[i]); err != nil {
				t.Fatal(err)
			}
		}
		want := mv.Ensemble.PredictBatch(scaled)
		eb, ej := fromBin.Ensemble.PredictBatch(scaled), fromJSON.Ensemble.PredictBatch(scaled)
		for i := range want {
			if eb[i] != want[i] || ej[i] != want[i] || math.Float64bits(eb[i].EU) != math.Float64bits(ej[i].EU) {
				t.Fatalf("v%d row %d: ensemble binary %+v, JSON %+v, trained %+v", mv.Version, i, eb[i], ej[i], want[i])
			}
		}
	}
}

// checkSameReference: equal histograms, cut for cut by bit pattern.
func checkSameReference(t *testing.T, got, want []FeatureHist) {
	t.Helper()
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reference histograms differ: %d loaded, %d wanted", len(got), len(want))
	}
	for i := range got {
		for j, c := range got[i].Cuts {
			if math.Float64bits(c) != math.Float64bits(want[i].Cuts[j]) {
				t.Fatalf("histogram %q cut %d: %v != %v by bits", got[i].Name, j, c, want[i].Cuts[j])
			}
		}
	}
}

// TestReferenceFileAtTheRegistry pins the manifest's side of reference.bin:
// the name is confined to the version directory like any artifact's, a
// manifest says its histograms one way only, a missing file is an error, and
// BumpVersion carries file and key into the version it mints.
func TestReferenceFileAtTheRegistry(t *testing.T) {
	_, v1, _ := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v1); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v1")
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	key := `"reference_file": "` + referenceName + `"`
	if !bytes.Contains(raw, []byte(key)) {
		t.Fatalf("manifest does not name %s", referenceName)
	}
	inline, err := json.Marshal(v1.Reference[:1])
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ with, want string }{
		"escaping path":    {`"reference_file": "../x"`, "non-local"},
		"absolute path":    {`"reference_file": "/etc/passwd"`, "non-local"},
		"missing file":     {`"reference_file": "gone.bin"`, "reading artifact"},
		"inline and file":  {`"reference": ` + string(inline) + `, ` + key, "inline and in"},
		"empty inline too": {`"reference": [], ` + key, "inline and in"},
	} {
		bad := bytes.Replace(raw, []byte(key), []byte(c.with), 1)
		if err := os.WriteFile(filepath.Join(dir, manifestName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadVersionDir(dir, "theta"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BumpVersion(root, "theta"); err != nil {
		t.Fatal(err)
	}
	v2raw, err := os.ReadFile(filepath.Join(root, "theta", "v2", manifestName))
	if err != nil || !bytes.Contains(v2raw, []byte(key)) || bytes.Contains(v2raw, []byte(`"reference":`)) {
		t.Fatalf("bumped manifest lost the reference file key: %v", err)
	}
	bumped, err := loadVersionDir(filepath.Join(root, "theta", "v2"), "theta")
	if err != nil {
		t.Fatal(err)
	}
	checkSameReference(t, bumped.Reference, v1.Reference)
	// A legacy bundle is bumped as what it is: inline stays inline.
	legacyRoot := t.TempDir()
	saveVersionJSON(t, legacyRoot, v1)
	if _, err := BumpVersion(legacyRoot, "theta"); err != nil {
		t.Fatal(err)
	}
	bumped, err = loadVersionDir(filepath.Join(legacyRoot, "theta", "v2"), "theta")
	if err != nil {
		t.Fatal(err)
	}
	checkSameReference(t, bumped.Reference, v1.Reference)
}

// TestHandWrittenBundlesLoad pins the bundles the reload and fuzz tests
// write by hand: the JSON one loads as it always has, and its model
// re-saved as binary loads to the same prediction.
func TestHandWrittenBundlesLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{manifestName: fuzzManifestJSON, "model.gbt.json": fuzzModelJSON} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mv, err := loadVersionDir(dir, "theta")
	if err != nil {
		t.Fatalf("hand-written JSON bundle refused: %v", err)
	}
	if got, want := mv.Model.Predict([]float64{1, 2}), 0.5+0.1*0.25; got != want {
		t.Fatalf("single-leaf model predicts %v, want %v", got, want)
	}
	root := t.TempDir()
	if err := SaveVersion(root, mv); err != nil {
		t.Fatal(err)
	}
	back, err := loadVersionDir(filepath.Join(root, "theta", "v1"), "theta")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Flat().Predict([]float64{1, 2}), mv.Model.Predict([]float64{1, 2}); got != want {
		t.Errorf("re-saved as binary it predicts %v, want %v", got, want)
	}
	// The JSON form is still refused when something follows the value.
	f, err := os.OpenFile(filepath.Join(dir, "model.gbt.json"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("}"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := loadVersionDir(dir, "theta"); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("JSON model with trailing data: %v", err)
	}
}

// binaryCorruptions of one binary artifact, each of which must be detected.
// sizeField is where its header declares a size: the number after it becomes
// four billion, under a valid checksum.
func binaryCorruptions(t *testing.T, good []byte, sizeField string) map[string][]byte {
	t.Helper()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	hlen := int(binary.LittleEndian.Uint32(good[8:]))
	header := string(good[12 : 12+hlen])
	at := strings.Index(header, sizeField)
	if at < 0 {
		t.Fatalf("no %s in the artifact's header: %s", sizeField, header)
	}
	at += len(sizeField)
	end := at + strings.IndexAny(header[at:], ",]")
	header = header[:at] + "4000000000" + header[end:]
	oversized := binary.LittleEndian.AppendUint32(append([]byte(nil), good[:8]...), uint32(len(header)))
	oversized = modelfile.Seal(append(append(oversized, header...), good[12+hlen:len(good)-4]...))
	return map[string][]byte{
		"flipped bit":      flipped,
		"truncated":        good[:len(good)-100],
		"oversized length": oversized,
		"empty":            {},
	}
}

// TestCorruptBinaryBundleIsRefused: a binary bundle with a flipped bit, a
// truncation or a declared length the file does not hold stops LoadRegistry
// at startup, and on a live reload is skipped while the old version keeps
// serving — what a corrupt JSON bundle has always done.
func TestCorruptBinaryBundleIsRefused(t *testing.T) {
	frame, v1, v2 := fixture(t)
	staged := t.TempDir()
	if err := SaveVersion(staged, v2); err != nil {
		t.Fatal(err)
	}
	for artifact, sizeField := range map[string]string{gbtModelName: `"tree_lens":[`, fmt.Sprintf(memberPattern, 1): `"in":`, referenceName: `"bins":[`} {
		good, err := os.ReadFile(filepath.Join(staged, "theta", "v2", artifact))
		if err != nil {
			t.Fatal(err)
		}
		for name, bad := range binaryCorruptions(t, good, sizeField) {
			t.Run(artifact+"/"+name, func(t *testing.T) {
				root := t.TempDir()
				if err := SaveVersion(root, v1); err != nil {
					t.Fatal(err)
				}
				svc, rel := diskService(t, root, Options{})
				if err := SaveVersion(root, v2); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(root, "theta", "v2", artifact)
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadRegistry(root); err == nil {
					t.Fatal("startup load accepted the corrupt bundle")
				} else if name == "oversized length" && !strings.Contains(err.Error(), "declares") {
					t.Errorf("oversized length refused for another reason: %v", err)
				}
				if _, err := rel.Poll(); err == nil {
					t.Fatal("reload poll loaded the corrupt bundle")
				}
				if _, err := svc.Registry().Get("theta", 2); err == nil {
					t.Fatal("corrupt version was registered")
				}
				_, served, err := svc.Predict(context.Background(), "theta", 0, [][]float64{frame.Row(0)})
				if err != nil || served.Version != 1 {
					t.Fatalf("v1 stopped serving after the corrupt publish: %v", err)
				}
				// Repairing the file is picked up by the next poll.
				if err := os.WriteFile(path, good, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := rel.Poll(); err != nil {
					t.Fatal(err)
				}
				if mv, err := svc.Registry().Get("theta", 0); err != nil || mv.Version != 2 {
					t.Fatalf("repaired v2 not serving: %v %v", mv, err)
				}
			})
		}
	}
}

// BenchmarkLoadVersionDir is the layer number behind the README's bundle
// format table: one loadVersionDir (manifest, model, three ensemble members,
// validation, flat compilation) of the fixture's v2 in each format.
func BenchmarkLoadVersionDir(b *testing.B) {
	_, _, v2 := fixture(b)
	binRoot := b.TempDir()
	if err := SaveVersion(binRoot, v2); err != nil {
		b.Fatal(err)
	}
	dirs := map[string]string{
		"json":   saveVersionJSON(b, b.TempDir(), v2),
		"binary": filepath.Join(binRoot, "theta", "v2"),
	}
	for _, format := range []string{"json", "binary"} {
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := loadVersionDir(dirs[format], "theta"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

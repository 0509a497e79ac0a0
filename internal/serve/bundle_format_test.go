package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotaxo/internal/modelfile"
)

// saveVersionJSON writes mv the way SaveVersion did before the binary form:
// every artifact as JSON, under the .json names, named by the manifest.
func saveVersionJSON(t testing.TB, root string, mv *ModelVersion) string {
	t.Helper()
	if err := SaveVersion(root, mv); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
	writers := map[string]func(io.Writer) error{gbtModelName: mv.Model.WriteJSON}
	if mv.Ensemble != nil {
		for i, member := range mv.Ensemble.Members {
			writers[fmt.Sprintf(memberPattern, i)] = member.WriteJSON
		}
	}
	for name, write := range writers {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		if err := writeArtifact(filepath.Join(dir, strings.TrimSuffix(name, binaryExt)+".json"), write); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.ReplaceAll(string(raw), binaryExt+`"`, `.json"`)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBundleFormatsLoadIdentical is the differential test of the two bundle
// formats: the same bundle saved as binary and as JSON loads to models that
// agree bit for bit with each other — tree walk, flat engine and ensemble —
// on every fixture row. The in-memory bundle is not the reference for the
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
	for artifact, sizeField := range map[string]string{gbtModelName: `"tree_lens":[`, fmt.Sprintf(memberPattern, 1): `"in":`} {
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

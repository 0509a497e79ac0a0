package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/gbt"
	"iotaxo/internal/modelfile"
	"iotaxo/internal/system"
)

// TestSavedBundleLoadsBitIdentical: a bundle saved by SaveVersion loads to
// models that agree bit for bit with the trained ones — tree walk, flat
// engine and ensemble — on every fixture row, to the same scaler, guard and
// reference histograms, and with an empty manifest body when it has no
// ensemble.
func TestSavedBundleLoadsBitIdentical(t *testing.T) {
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
		root := t.TempDir()
		if err := SaveVersion(root, mv); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
		back, err := loadVersionDir(dir, mv.System, new([2][]byte))
		if err != nil {
			t.Fatal(err)
		}
		checkSameReference(t, back.Reference, mv.Reference)
		if back.Guard != mv.Guard || back.TrainedOn != mv.TrainedOn || !reflect.DeepEqual(back.Columns, mv.Columns) {
			t.Fatalf("v%d: manifest fields changed: %+v", mv.Version, back.Guard)
		}
		flat := back.Flat().PredictAll(rows)
		for i, row := range rows {
			got, want := back.Model.Predict(row), mv.Model.Predict(row)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(flat[i]) != math.Float64bits(want) {
				t.Fatalf("v%d row %d: loaded %v, flat %v, trained %v", mv.Version, i, got, flat[i], want)
			}
		}
		if mv.Ensemble == nil {
			if back.Ensemble != nil || back.Scaler != nil {
				t.Fatalf("v%d: an unguarded bundle loaded with an ensemble", mv.Version)
			}
			continue
		}
		if !reflect.DeepEqual(back.Scaler, mv.Scaler) {
			t.Fatalf("v%d: scaler changed", mv.Version)
		}
		scaled := make([][]float64, len(rows))
		for i, row := range rows {
			scaled[i] = make([]float64, len(row))
			if err := back.Scaler.TransformRow(row, scaled[i]); err != nil {
				t.Fatal(err)
			}
		}
		want, got := mv.Ensemble.PredictBatch(scaled), back.Ensemble.PredictBatch(scaled)
		for i := range want {
			if got[i] != want[i] || math.Float64bits(got[i].EU) != math.Float64bits(want[i].EU) {
				t.Fatalf("v%d row %d: ensemble loaded %+v, trained %+v", mv.Version, i, got[i], want[i])
			}
		}
	}
}

// TestLoadKeepsNoReadBuffer: a load reads the manifest and model into one
// buffer and the reference and members into another. Overwriting both after
// the load leaves everything the bundle holds and predicts bit-identical to
// a load through fresh buffers, so no decoder kept a slice of either.
func TestLoadKeepsNoReadBuffer(t *testing.T) {
	frame, _, v2 := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v2); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v2")
	bufs := new([2][]byte)
	mv, err := loadVersionDir(dir, "theta", bufs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs[0]) == 0 || len(bufs[1]) == 0 {
		t.Fatalf("buffers of %d and %d bytes: the load did not read through them", len(bufs[0]), len(bufs[1]))
	}
	for _, b := range bufs {
		for i := range b[:cap(b)] {
			b[:cap(b)][i] = 0xa5
		}
	}
	fresh, err := loadVersionDir(dir, "theta", new([2][]byte))
	if err != nil {
		t.Fatal(err)
	}
	checkSameReference(t, mv.Reference, fresh.Reference)
	if !reflect.DeepEqual(mv.Scaler, fresh.Scaler) || !reflect.DeepEqual(mv.Columns, fresh.Columns) {
		t.Fatal("scaler or columns changed with the buffers")
	}
	rows := frame.Rows()
	scaled := make([][]float64, len(rows))
	for i, row := range rows {
		scaled[i] = make([]float64, len(row))
		if err := mv.Scaler.TransformRow(row, scaled[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, want := mv.Flat().PredictAll(rows), fresh.Flat().PredictAll(rows)
	gotEU, wantEU := mv.Ensemble.PredictBatch(scaled), fresh.Ensemble.PredictBatch(scaled)
	for i := range rows {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotEU[i] != wantEU[i] {
			t.Fatalf("row %d: %v and %+v after the buffers were overwritten, %v and %+v loaded fresh", i, got[i], gotEU[i], want[i], wantEU[i])
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
// missing file is an error, and BumpVersion carries the reference into the
// version it mints.
func TestReferenceFileAtTheRegistry(t *testing.T) {
	_, v1, _ := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v1); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v1")
	good, err := readManifest(dir, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if good.ReferenceFile == nil || good.ReferenceFile.Name != referenceName {
		t.Fatalf("manifest does not name %s", referenceName)
	}
	for name, c := range map[string]struct{ ref, want string }{
		"escaping path": {"../x", "non-local"},
		"absolute path": {"/etc/passwd", "non-local"},
		"missing file":  {"gone.bin", "reading artifact"},
	} {
		bad := good
		bad.ReferenceFile = &artifactRef{Name: c.ref}
		sealManifest(t, dir, bad)
		if _, err := loadVersionDir(dir, "theta", new([2][]byte)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
	sealManifest(t, dir, good)
	if _, err := BumpVersion(root, "theta"); err != nil {
		t.Fatal(err)
	}
	bumped, err := loadVersionDir(filepath.Join(root, "theta", "v2"), "theta", new([2][]byte))
	if err != nil {
		t.Fatal(err)
	}
	checkSameReference(t, bumped.Reference, v1.Reference)
}

// TestHandWrittenBundlesLoad pins the bundle the reload, reference and fuzz
// tests write by hand: it loads and predicts what its single leaf says, and
// it is byte for byte the bundle SaveVersion writes for what it loaded to.
func TestHandWrittenBundlesLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	writeBundle(t, dir, fuzzManifest(), map[string][]byte{gbtModelName: fuzzModel(t)})
	mv, err := loadVersionDir(dir, "theta", new([2][]byte))
	if err != nil {
		t.Fatalf("hand-written bundle refused: %v", err)
	}
	if got, want := mv.Flat().Predict([]float64{1, 2}), 0.5+0.1*0.25; got != want {
		t.Fatalf("single-leaf model predicts %v, want %v", got, want)
	}
	root := t.TempDir()
	if err := SaveVersion(root, mv); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, gbtModelName} {
		hand, _ := os.ReadFile(filepath.Join(dir, name))
		saved, err := os.ReadFile(filepath.Join(root, "theta", "v1", name))
		if err != nil || !bytes.Equal(hand, saved) {
			t.Errorf("%s: SaveVersion wrote %d bytes, the hand-written bundle has %d (%v)", name, len(saved), len(hand), err)
		}
	}
}

// TestUnquantizableBundleIsRefused: a gbt artifact with 256 distinct
// thresholds on one feature cannot be coded by the flat walk, so
// gbt.ReadBinary refuses it, and loadVersionDir with it, with gbt's error.
// Its 255-threshold twin loads.
func TestUnquantizableBundleIsRefused(t *testing.T) {
	for _, n := range []int{255, 256} {
		dir := filepath.Join(t.TempDir(), "v1")
		writeBundle(t, dir, fuzzManifest(), map[string][]byte{gbtModelName: stumpsModel(t, n)})
		_, loadErr := loadVersionDir(dir, "theta", new([2][]byte))
		_, readErr := gbt.ReadBinary(stumpsModel(t, n))
		for name, err := range map[string]error{"loadVersionDir": loadErr, "gbt.ReadBinary": readErr} {
			if n == 255 && err != nil {
				t.Errorf("%s refused 255 thresholds: %v", name, err)
			}
			if n == 256 && (!errors.Is(err, gbt.ErrTooManyThresholds) || !strings.Contains(err.Error(), "feature 0 has 256")) {
				t.Errorf("%s: got %v, want gbt.ErrTooManyThresholds naming feature 0", name, err)
			}
		}
	}
}

// TestLoadErrorPrecedence: loadVersionDir decodes the model on the calling
// goroutine and the guard's artifacts on a second one, yet a bundle with two
// bad artifacts is refused for the one a serial load reaches first — the
// model, then the reference, then the members in order. A model the flat
// walk cannot code is a model decode error, so it comes before a bad
// member. The refusal is exactly the one the bundle gives with only that
// artifact bad. CI runs it under -race, twenty times.
func TestLoadErrorPrecedence(t *testing.T) {
	_, _, v2 := fixture(t)
	staged := t.TempDir()
	if err := SaveVersion(staged, v2); err != nil {
		t.Fatal(err)
	}
	flipped := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(staged, "theta", "v2", name))
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x10
		return b
	}
	member := func(i int) string { return fmt.Sprintf(memberPattern, i) }
	unquantizable := stumpsOver(t, 256, len(v2.Columns))
	// load saves v2 under root afresh, writes bad over it, re-pins it and
	// loads it.
	load := func(root string, bad map[string][]byte) error {
		if err := SaveVersion(root, v2); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, "theta", "v2")
		for name, data := range bad {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		repin(t, dir, nil)
		mv, err := loadVersionDir(dir, "theta", new([2][]byte))
		if err == nil || mv != nil {
			t.Fatalf("%d bad artifacts accepted", len(bad))
		}
		return err
	}
	for name, c := range map[string]struct{ first, second string }{
		"corrupt model and member":     {gbtModelName, member(1)},
		"corrupt reference and member": {referenceName, member(0)},
		"corrupt members 0 and 2":      {member(0), member(2)},
		"bad member, unquantizable":    {gbtModelName, member(2)},
	} {
		t.Run(name, func(t *testing.T) {
			bad := map[string][]byte{c.first: flipped(c.first), c.second: flipped(c.second)}
			if name == "bad member, unquantizable" {
				bad[gbtModelName] = unquantizable
			}
			root := t.TempDir()
			want := load(root, map[string][]byte{c.first: bad[c.first]})
			if alone := load(root, map[string][]byte{c.second: bad[c.second]}); alone.Error() == want.Error() {
				t.Fatalf("%s and %s are refused alike: %v", c.first, c.second, alone)
			}
			if got := load(root, bad); got.Error() != want.Error() {
				t.Fatalf("refused with %v, want the serial load's %v", got, want)
			}
		})
	}
}

// TestLegacyBundlesAreRefused: a manifest as it was written before it was
// sealed — JSON text beside binary artifacts, or beside JSON models with its
// histograms inline — is refused at startup and by a reload poll, with an
// error that says how to get a loadable bundle, and the registry keeps
// serving what it had. So is a sealed bundle whose model is a version-1
// gbt artifact, from before the model was stored in its flat layout.
func TestLegacyBundlesAreRefused(t *testing.T) {
	model := fuzzModel(t)
	// fuzzModel as version 1 wrote it: a header without edge_lens, the gain,
	// and its leaf as a 28-byte node (feature -1, links, threshold, value).
	b, err := modelfile.Begin("IOTAXGBT", json.RawMessage(`{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,`+
		`"Subsample":1,"ColSample":1,"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},"bias":0.5,"n_feature":2,"tree_lens":[1]}`), 16+28)
	if err != nil {
		t.Fatal(err)
	}
	b = binary.LittleEndian.AppendUint32(modelfile.AppendFloat64s(b, []float64{0, 0}), math.MaxUint32)
	v1Model := modelfile.Seal(modelfile.AppendFloat64s(append(b, make([]byte, 16)...), []float64{0.25}))
	staged := t.TempDir()
	if err := os.WriteFile(filepath.Join(staged, gbtModelName), v1Model, 0o644); err != nil {
		t.Fatal(err)
	}
	v2 := fuzzManifest()
	v2.Version = 2
	for name, files := range map[string]map[string]string{
		"sealed manifest, version-1 model": {
			manifestName: string(sealedManifest(t, staged, v2)),
			gbtModelName: string(v1Model),
		},
		"JSON manifest, binary model": {
			manifestName: `{"system":"theta","version":2,"columns":["a","b"],"model":"model.gbt.bin","guard":{"eu_threshold":0.5}}`,
			gbtModelName: string(model),
		},
		"JSON models, inline histograms": {
			manifestName: `{"system":"theta","version":2,"columns":["a","b"],"model":"model.gbt.json","guard":{"eu_threshold":0.5},` +
				`"reference":[{"name":"a","cuts":[1],"counts":[3,4]}]}`,
			"model.gbt.json": `{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,"Subsample":1,"ColSample":1,` +
				`"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},"bias":0.5,"n_feature":2,"gain":[0,0],"trees":[[{"f":-1,"v":0.25}]]}`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			writeBundle(t, filepath.Join(root, "theta", "v1"), fuzzManifest(), map[string][]byte{gbtModelName: model})
			svc, rel := diskService(t, root, Options{})
			legacy := filepath.Join(root, "theta", "v2")
			if err := os.MkdirAll(legacy, 0o755); err != nil {
				t.Fatal(err)
			}
			for file, body := range files {
				if err := os.WriteFile(filepath.Join(legacy, file), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, loadErr := LoadRegistry(root)
			_, pollErr := rel.Poll()
			for _, err := range []error{loadErr, pollErr} {
				if err == nil || !strings.Contains(err.Error(), "predates this build's bundle format") || !strings.Contains(err.Error(), "SaveVersion") {
					t.Errorf("legacy bundle: got %v, want the re-save advice", err)
				}
			}
			if mv, err := svc.Registry().Get("theta", 0); err != nil || mv.Version != 1 {
				t.Fatalf("v1 stopped serving: %v %v", mv, err)
			}
		})
	}
}

// binaryCorruptions of one sealed file, each of which must be detected.
// sizeField, when set, is where its header declares a size: the number after
// it becomes four billion, under a valid checksum.
func binaryCorruptions(t *testing.T, good []byte, sizeField string) map[string][]byte {
	t.Helper()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	out := map[string][]byte{
		"flipped bit": flipped,
		"truncated":   good[:len(good)-100],
		"empty":       {},
	}
	if sizeField == "" {
		return out
	}
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
	out["oversized length"] = modelfile.Seal(append(append(oversized, header...), good[12+hlen:len(good)-4]...))
	return out
}

// TestCorruptBinaryBundleIsRefused: a bundle with a flipped bit, a truncation
// or a declared length the file does not hold — in any artifact or in the
// manifest — or with an artifact spliced in from another version stops
// LoadRegistry at startup, and on a live reload is skipped while the old
// version keeps serving; repairing it is picked up by the next poll. An
// oversized length is re-pinned in the manifest, so it reaches the decoder.
func TestCorruptBinaryBundleIsRefused(t *testing.T) {
	frame, v1, v2 := fixture(t)
	staged := t.TempDir()
	for _, mv := range []*ModelVersion{v1, v2} {
		if err := SaveVersion(staged, mv); err != nil {
			t.Fatal(err)
		}
	}
	type corruption struct{ file, name string }
	bad := map[corruption][]byte{}
	for file, sizeField := range map[string]string{gbtModelName: `"tree_lens":[`, fmt.Sprintf(memberPattern, 1): `"in":`, referenceName: `"bins":[`, manifestName: ""} {
		good, err := os.ReadFile(filepath.Join(staged, "theta", "v2", file))
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range binaryCorruptions(t, good, sizeField) {
			bad[corruption{file, name}] = data
		}
	}
	spliced, err := os.ReadFile(filepath.Join(staged, "theta", "v1", gbtModelName))
	if err != nil {
		t.Fatal(err)
	}
	bad[corruption{gbtModelName, "spliced"}] = spliced
	for c, data := range bad {
		t.Run(c.file+"/"+c.name, func(t *testing.T) {
			root := t.TempDir()
			if err := SaveVersion(root, v1); err != nil {
				t.Fatal(err)
			}
			svc, rel := diskService(t, root, Options{})
			if err := SaveVersion(root, v2); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, "theta", "v2")
			path := filepath.Join(dir, c.file)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			goodManifest, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.name == "oversized length" {
				repin(t, dir, nil)
			}
			if _, err := LoadRegistry(root); err == nil {
				t.Fatal("startup load accepted the corrupt bundle")
			} else if c.name == "oversized length" && !strings.Contains(err.Error(), "declares") {
				t.Errorf("oversized length refused for another reason: %v", err)
			} else if c.name == "spliced" && !strings.Contains(err.Error(), "manifest pins") {
				t.Errorf("spliced artifact refused for another reason: %v", err)
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
			// Repairing the bundle is picked up by the next poll.
			for p, body := range map[string][]byte{path: good, filepath.Join(dir, manifestName): goodManifest} {
				if err := os.WriteFile(p, body, 0o644); err != nil {
					t.Fatal(err)
				}
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

// TestManifestDetectsEveryFlipAndTruncation is the corruption table's row for
// the manifest, which carries the guard calibration and the scaler: no
// flipped bit anywhere in the fixture's manifest and no truncation of it is
// loaded by loadVersionDir.
func TestManifestDetectsEveryFlipAndTruncation(t *testing.T) {
	_, v1, _ := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v1); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v1")
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mv, err := loadVersionDir(dir, "theta", new([2][]byte))
		if err == nil || mv != nil {
			return fmt.Errorf("accepted")
		}
		return nil
	}
	for n := 0; n < len(good); n++ {
		if load(good[:n]) != nil {
			t.Fatalf("manifest truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if load(bad) != nil {
				t.Fatalf("bit %d of manifest byte %d flipped: accepted", bit, i)
			}
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadVersionDir(dir, "theta", new([2][]byte)); err != nil {
		t.Fatalf("the untouched manifest is refused: %v", err)
	}
}

// BenchmarkLoadVersionDir is the layer number behind the README's bundle
// load rows: one loadVersionDir (manifest, model, three ensemble members,
// reference, validation, flat compilation). "binary" loads the test
// fixture's v2 (24 trees of depth 5); "bootstrap" loads a bundle of
// DefaultBootstrap's shape (80 trees of depth 7 over 4 000 Theta jobs, the
// bundle bench/ serves), so that it is at the scale of the ledger's
// setup.load_registry_s. Training it takes a few seconds; epochs do not
// change what is loaded, so it trains one.
func BenchmarkLoadVersionDir(b *testing.B) {
	_, _, v2 := fixture(b)
	load := func(b *testing.B, mv *ModelVersion) {
		root := b.TempDir()
		if err := SaveVersion(root, mv); err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := loadVersionDir(dir, mv.System, new([2][]byte)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("binary", func(b *testing.B) { load(b, v2) })
	b.Run("bootstrap", func(b *testing.B) {
		cfg := DefaultBootstrap()
		cfg.Versions, cfg.Epochs = 1, 1
		sysCfg := system.ThetaLike(cfg.Jobs)
		sysCfg.Seed = cfg.Seed
		m, err := system.Generate(sysCfg)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := m.Frame()
		if err != nil {
			b.Fatal(err)
		}
		mv, err := BuildVersion("theta", 1, frame, cfg)
		if err != nil {
			b.Fatal(err)
		}
		load(b, mv)
	})
}

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
	"slices"
	"strings"
	"testing"

	"iotaxo/internal/gbt"
	"iotaxo/internal/modelfile"
	"iotaxo/internal/system"
)

// TestSavedBundleLoadsBitIdentical: a bundle saved by SaveVersion loads to
// models that agree bit for bit with the trained ones — tree walk, flat
// engine and ensemble — on every fixture row, to the same scaler, guard and
// reference histograms, and with no scaler when it has no ensemble.
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
		back, err := loadVersionDir(dir, mv.System, mv.Version, new([]byte))
		if err != nil {
			t.Fatal(err)
		}
		checkSameReference(t, back.Reference, mv.Reference)
		if back.Guard != mv.Guard || back.TrainedOn != mv.TrainedOn || !reflect.DeepEqual(back.Columns, mv.Columns) {
			t.Fatalf("v%d: header fields changed: %+v", mv.Version, back.Guard)
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

// TestSaveVersionWritesOneFile: a saved version is its bundle.bin and
// nothing else; files beside it — notes, a manifest.json, a staging
// leftover, a directory — are neither read nor fingerprinted.
func TestSaveVersionWritesOneFile(t *testing.T) {
	_, v1, _ := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v1); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v1")
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != bundleName {
		t.Fatalf("SaveVersion left %v (%v), want only %s", ents, err, bundleName)
	}
	fp, err := dirFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"NOTES": "retrained by hand", legacyManifestName: "{not a manifest", "." + bundleName + "-123": "half a bundle"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "old"), 0o755); err != nil {
		t.Fatal(err)
	}
	if again, err := dirFingerprint(dir); err != nil || again != fp {
		t.Errorf("fingerprint %q (%v) with files beside the bundle, %q without", again, err, fp)
	}
	reg, err := LoadRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if mv, err := reg.Get("theta", 1); err != nil || mv.Guard != v1.Guard {
		t.Fatalf("v1 beside unrelated files: %v", err)
	}
}

// TestLoadKeepsNoReadBuffer: a load reads the bundle into one buffer.
// Overwriting it after the load leaves everything the bundle holds and
// predicts bit-identical to a load through a fresh buffer, so no decoder
// kept a slice of it.
func TestLoadKeepsNoReadBuffer(t *testing.T) {
	frame, _, v2 := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v2); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "theta", "v2")
	buf := new([]byte)
	mv, err := loadVersionDir(dir, "theta", 2, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(*buf) == 0 {
		t.Fatal("the load did not read through the buffer")
	}
	b := (*buf)[:cap(*buf)]
	for i := range b {
		b[i] = 0xa5
	}
	fresh, err := loadVersionDir(dir, "theta", 2, new([]byte))
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

// TestReferenceFileAtTheRegistry pins the bundle's side of the reference
// histograms: the section is optional — a bundle without one loads with
// none — and BumpVersion carries it into the version it mints.
func TestReferenceFileAtTheRegistry(t *testing.T) {
	_, v1, _ := fixture(t)
	root := t.TempDir()
	if err := SaveVersion(root, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := BumpVersion(root, "theta"); err != nil {
		t.Fatal(err)
	}
	bumped, err := loadVersionDir(filepath.Join(root, "theta", "v2"), "theta", 2, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	checkSameReference(t, bumped.Reference, v1.Reference)
	dir := filepath.Join(root, "theta", "v1")
	rewriteBundle(t, dir, func(m *manifest) { m.reference = nil })
	bare, err := loadVersionDir(dir, "theta", 1, new([]byte))
	if err != nil || bare.Reference != nil {
		t.Fatalf("bundle without a reference section: %v, %d histograms", err, len(bare.Reference))
	}
}

// TestHandWrittenBundlesLoad pins the bundles the reload, reference and fuzz
// tests write by hand: they load, the bare one predicts what its single
// leaf says, and each is byte for byte the bundle SaveVersion writes for
// what it loaded to.
func TestHandWrittenBundlesLoad(t *testing.T) {
	for name, m := range map[string]manifest{"bare": fuzzBundle(t), "guarded": guardedBundle(t)} {
		dir := filepath.Join(t.TempDir(), "v1")
		writeBundle(t, dir, m)
		mv, err := loadVersionDir(dir, "theta", 1, new([]byte))
		if err != nil {
			t.Fatalf("%s: hand-written bundle refused: %v", name, err)
		}
		if got, want := mv.Flat().Predict([]float64{1, 2}), 0.5+0.1*0.25; got != want {
			t.Fatalf("%s: single-leaf model predicts %v, want %v", name, got, want)
		}
		root := t.TempDir()
		if err := SaveVersion(root, mv); err != nil {
			t.Fatal(err)
		}
		hand, _ := os.ReadFile(filepath.Join(dir, bundleName))
		saved, err := os.ReadFile(filepath.Join(root, "theta", "v1", bundleName))
		if err != nil || !bytes.Equal(hand, saved) {
			t.Errorf("%s: SaveVersion wrote %d bytes, the hand-written bundle has %d (%v)", name, len(saved), len(hand), err)
		}
	}
}

// TestUnquantizableBundleIsRefused: a gbt section with 256 distinct
// thresholds on one feature cannot be coded by the flat walk, so
// gbt.ReadBinary refuses it, and loadVersionDir with it, with gbt's error.
// Its 255-threshold twin loads.
func TestUnquantizableBundleIsRefused(t *testing.T) {
	for _, n := range []int{255, 256} {
		dir := filepath.Join(t.TempDir(), "v1")
		m := fuzzBundle(t)
		m.model = stumpsModel(t, n)
		writeBundle(t, dir, m)
		_, loadErr := loadVersionDir(dir, "theta", 1, new([]byte))
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
// goroutine and the reference, members and scaler on a second one, yet a
// bundle with two bad parts is refused for the one a serial load reaches
// first — the container, the model, the reference, the members in order,
// the scaler. A model the flat walk cannot code is a model decode error, so
// it comes before a bad member. The refusal is exactly the one the bundle
// gives with only that part bad. CI runs it under -race, twenty times.
func TestLoadErrorPrecedence(t *testing.T) {
	_, _, v2 := fixture(t)
	staged := t.TempDir()
	if err := SaveVersion(staged, v2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(staged, "theta", "v2", bundleName))
	if err != nil {
		t.Fatal(err)
	}
	flipped := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0x10
		return b
	}
	unquantizable := stumpsOver(t, 256, len(v2.Columns))
	spoil := map[string]func(m *manifest){
		// The scaler is one float64 too long, so the sections start early
		// and bytes are left after the last.
		"container":     func(m *manifest) { m.mean, m.std = append(m.mean, 0), append(m.std, 1) },
		"model":         func(m *manifest) { m.model = flipped(m.model) },
		"reference":     func(m *manifest) { m.reference = flipped(m.reference) },
		"unquantizable": func(m *manifest) { m.model = unquantizable },
		"scaler":        func(m *manifest) { m.std = append([]float64{0}, m.std[1:]...) },
	}
	for i := range v2.Ensemble.Members {
		spoil[fmt.Sprintf("member %d", i)] = func(m *manifest) {
			m.members = slices.Clone(m.members)
			m.members[i] = flipped(m.members[i])
		}
	}
	// load writes v2's bundle into dir with parts spoiled under a resealed
	// container, and loads it.
	load := func(dir string, parts ...string) error {
		m, err := openBundle(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range parts {
			spoil[part](&m)
		}
		writeBundle(t, dir, m)
		mv, err := loadVersionDir(dir, "theta", 2, new([]byte))
		if err == nil || mv != nil {
			t.Fatalf("%v spoiled and accepted", parts)
		}
		return err
	}
	for name, c := range map[string]struct{ first, second string }{
		"bad container and model":      {"container", "model"},
		"corrupt model and member":     {"model", "member 1"},
		"corrupt reference and member": {"reference", "member 0"},
		"corrupt members 0 and 2":      {"member 0", "member 2"},
		"bad member, unquantizable":    {"unquantizable", "member 2"},
		"corrupt member, bad scaler":   {"member 1", "scaler"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "v2")
			want := load(dir, c.first)
			if alone := load(dir, c.second); alone.Error() == want.Error() {
				t.Fatalf("%s and %s are refused alike: %v", c.first, c.second, alone)
			}
			if got := load(dir, c.first, c.second); got.Error() != want.Error() {
				t.Fatalf("refused with %v, want the serial load's %v", got, want)
			}
		})
	}
}

// TestLegacyBundlesAreRefused: a version directory written before a bundle
// was one file — a manifest.json, sealed or JSON text, beside binary or JSON
// models — holds no bundle.bin, and is refused at startup and by a reload
// poll with an error that says how to get a loadable bundle, while the
// registry keeps serving what it had.
func TestLegacyBundlesAreRefused(t *testing.T) {
	model := fuzzModel(t)
	// fuzzModel as version 1 of the gbt artifact wrote it: a header without
	// edge_lens, the gain, and its leaf as a 28-byte node (feature -1,
	// links, threshold, value).
	b, err := modelfile.Begin("IOTAXGBT", json.RawMessage(`{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,`+
		`"Subsample":1,"ColSample":1,"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},"bias":0.5,"n_feature":2,"tree_lens":[1]}`), 16+28)
	if err != nil {
		t.Fatal(err)
	}
	b = binary.LittleEndian.AppendUint32(modelfile.AppendFloat64s(b, []float64{0, 0}), math.MaxUint32)
	v1Model := modelfile.Seal(modelfile.AppendFloat64s(append(b, make([]byte, 16)...), []float64{0.25}))
	sealedManifest, err := modelfile.Begin("IOTAXMAN", json.RawMessage(`{"system":"theta","version":2,"columns":["a","b"],`+
		`"model":{"name":"model.gbt.bin","crc32c":0},"guard":{"eu_threshold":0.5,"noise_sigma_log":0,"noise_floor_pct":0}}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string]map[string]string{
		"sealed manifest, version-1 model": {
			legacyManifestName: string(modelfile.Seal(sealedManifest)),
			"model.gbt.bin":    string(v1Model),
		},
		"JSON manifest, binary model": {
			legacyManifestName: `{"system":"theta","version":2,"columns":["a","b"],"model":"model.gbt.bin","guard":{"eu_threshold":0.5}}`,
			"model.gbt.bin":    string(model),
		},
		"JSON models, inline histograms": {
			legacyManifestName: `{"system":"theta","version":2,"columns":["a","b"],"model":"model.gbt.json","guard":{"eu_threshold":0.5},` +
				`"reference":[{"name":"a","cuts":[1],"counts":[3,4]}]}`,
			"model.gbt.json": `{"version":1,"params":{"NumTrees":1,"MaxDepth":1,"LearningRate":0.1,"Subsample":1,"ColSample":1,` +
				`"MinChildWeight":1,"Lambda":1,"NumBins":2,"Seed":1},"bias":0.5,"n_feature":2,"gain":[0,0],"trees":[[{"f":-1,"v":0.25}]]}`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			writeBundle(t, filepath.Join(root, "theta", "v1"), fuzzBundle(t))
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

// binaryCorruptions of one sealed artifact, each of which must be detected.
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

// TestCorruptBinaryBundleIsRefused: a bundle with a flipped bit, a
// truncation or a declared length the bytes do not hold — in the container
// or in any section — or with a section spliced in from another version
// stops LoadRegistry at startup, and on a live reload is skipped while the
// old version keeps serving; repairing it is picked up by the next poll.
// Each case is named for the file that held its part when a bundle was six
// files, manifest.json standing for the container itself. A section's
// corruption is resealed into the container, so that the section's own
// checks are what refuse it; the container's are the manifest.json rows and
// the splice, which is not resealed.
func TestCorruptBinaryBundleIsRefused(t *testing.T) {
	frame, v1, v2 := fixture(t)
	staged := t.TempDir()
	for _, mv := range []*ModelVersion{v1, v2} {
		if err := SaveVersion(staged, mv); err != nil {
			t.Fatal(err)
		}
	}
	read := func(version string) ([]byte, manifest) {
		raw, err := os.ReadFile(filepath.Join(staged, "theta", version, bundleName))
		if err != nil {
			t.Fatal(err)
		}
		m, err := openBundle(raw)
		if err != nil {
			t.Fatal(err)
		}
		return raw, m
	}
	good, m := read("v2")
	type corruption struct{ file, name string }
	bad := map[corruption][]byte{}
	for name, data := range binaryCorruptions(t, good, "") {
		bad[corruption{legacyManifestName, name}] = data
	}
	header := string(good[12 : 12+binary.LittleEndian.Uint32(good[8:])])
	for file, c := range map[string]struct {
		sizeField string
		section   *[]byte
	}{
		"model.gbt.bin":   {`"tree_lens":[`, &m.model},
		"member_1.nn.bin": {`"in":`, &m.members[1]},
		"reference.bin":   {`"bins":[`, &m.reference},
	} {
		section := *c.section
		for name, data := range binaryCorruptions(t, section, c.sizeField) {
			*c.section = data
			bad[corruption{file, name}] = sealed(t, m)
		}
		// An empty section is a missing one: the header still declares it.
		bad[corruption{file, "empty"}] = withHeader(bad[corruption{file, "empty"}], header)
		*c.section = section
	}
	_, from := read("v1")
	at := bytes.Index(good, m.model)
	bad[corruption{"model.gbt.bin", "spliced"}] = append(append(good[:at:at], from.model...), good[at+len(m.model):]...)
	for c, data := range bad {
		t.Run(c.file+"/"+c.name, func(t *testing.T) {
			root := t.TempDir()
			if err := SaveVersion(root, v1); err != nil {
				t.Fatal(err)
			}
			svc, rel := diskService(t, root, Options{})
			path := filepath.Join(root, "theta", "v2", bundleName)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadRegistry(root); err == nil {
				t.Fatal("startup load accepted the corrupt bundle")
			} else if c.name == "oversized length" && !strings.Contains(err.Error(), "declares") {
				t.Errorf("oversized length refused for another reason: %v", err)
			} else if c.name == "spliced" && !strings.Contains(err.Error(), "checksum mismatch") {
				t.Errorf("spliced section refused for another reason: %v", err)
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

// TestBundleDetectsEveryFlipAndTruncation: no flipped bit anywhere in a
// bundle with every part — header, columns, scaler, model, reference and
// two members — and no truncation of it is loaded. The container's
// checksum refuses them before a byte is believed.
func TestBundleDetectsEveryFlipAndTruncation(t *testing.T) {
	good := sealed(t, guardedBundle(t))
	if _, err := decodeBundle(good, "theta", 1); err != nil {
		t.Fatalf("the untouched bundle is refused: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if mv, err := decodeBundle(good[:n], "theta", 1); err == nil || mv != nil {
			t.Fatalf("bundle truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(good)
			bad[i] ^= 1 << bit
			if mv, err := decodeBundle(bad, "theta", 1); err == nil || mv != nil {
				t.Fatalf("bit %d of byte %d flipped: accepted", bit, i)
			}
		}
	}
}

// TestBundleSectionLengthsMustAddUp: under a valid checksum, a header whose
// lengths run past the body — however large, or negative — or leave bytes
// after the last section, a column count the body cannot hold, or a
// scaler_log without an ensemble is refused before any section is decoded.
func TestBundleSectionLengthsMustAddUp(t *testing.T) {
	good := sealed(t, guardedBundle(t))
	m, err := openBundle(good)
	if err != nil {
		t.Fatal(err)
	}
	header := func(model, reference int, members string) string {
		return fmt.Sprintf(`{"system":"theta","version":1,"scaler_log":true,"guard":{"eu_threshold":0.5,"noise_sigma_log":0,"noise_floor_pct":0},`+
			`"model_bytes":%d,"reference_bytes":%d,"member_bytes":%s}`, model, reference, members)
	}
	model, ref := len(m.model), len(m.reference)
	members := fmt.Sprintf("[%d,%d]", len(m.members[0]), len(m.members[1]))
	if _, err := decodeBundle(withHeader(good, header(model, ref, members)), "theta", 1); err != nil {
		t.Fatalf("the header rewritten as it was is refused: %v", err)
	}
	bare := fuzzBundle(t)
	bare.ScalerLog = true
	for name, c := range map[string]struct {
		data []byte
		want string
	}{
		"model past the body":         {withHeader(good, header(1<<62, ref, members)), "model section of 4611686018427387904 bytes"},
		"negative model":              {withHeader(good, header(-1, ref, members)), "model section of -1 bytes"},
		"members past the body":       {withHeader(good, header(model, ref, "[9223372036854775807,1]")), "member 0 section of"},
		"members overflowing the sum": {withHeader(good, header(model, ref, fmt.Sprintf("[%d,9223372036854775807]", len(m.members[0])))), "member 1 section of"},
		"a byte short of the body":    {withHeader(good, header(model-1, ref, members)), "1 body bytes after the last section"},
		"bytes after the sections":    {withHeader(good, header(model, ref, fmt.Sprintf("[%d]", len(m.members[0])))), "body bytes after the last section"},
		"more columns than bytes":     {withColumnCount(good, 1<<30), "columns with"},
		"scaler_log without ensemble": {sealed(t, bare), "scaler_log set"},
	} {
		if mv, err := decodeBundle(c.data, "theta", 1); err == nil || mv != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// withColumnCount is the sealed bundle raw with its column count set to n
// and the checksum recomputed.
func withColumnCount(raw []byte, n uint32) []byte {
	b := bytes.Clone(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(b[12+binary.LittleEndian.Uint32(raw[8:]):], n)
	return modelfile.Seal(b)
}

// BenchmarkLoadVersionDir is the layer number behind the README's bundle
// load rows: one loadVersionDir (read, container checksum, model, three
// ensemble members, reference, scaler, validation). "binary" loads the test
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
			if _, err := loadVersionDir(dir, mv.System, mv.Version, new([]byte)); err != nil {
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

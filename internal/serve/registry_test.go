package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryVersionSelection(t *testing.T) {
	reg := fixtureRegistry(t)
	latest, err := reg.Get("theta", 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 2 {
		t.Errorf("latest is v%d, want v2", latest.Version)
	}
	pinned, err := reg.Get("theta", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != 1 {
		t.Errorf("pinned v1 got v%d", pinned.Version)
	}
	if _, err := reg.Get("theta", 9); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("missing version error: %v", err)
	}
	if _, err := reg.Get("frontier", 0); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("missing system error: %v", err)
	}
}

func TestRegistryRejectsDuplicatesAndInvalid(t *testing.T) {
	_, v1, _ := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v1); err == nil {
		t.Error("duplicate version accepted")
	}
	bad := v1.derive()
	bad.Columns = v1.Columns[:len(v1.Columns)-1]
	if err := reg.Add(bad); err == nil {
		t.Error("column/model width mismatch accepted")
	}
	noScaler := v1.derive()
	noScaler.Version = 5
	noScaler.Scaler = nil
	if err := reg.Add(noScaler); err == nil {
		t.Error("ensemble without scaler accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	frame, v1, v2 := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	if err := SaveVersion(dir, v2); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.NumVersions(); got != 2 {
		t.Fatalf("loaded %d versions, want 2", got)
	}
	back, err := reg.Get("theta", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded artifacts must predict identically to the trained ones.
	for i := 0; i < 25; i++ {
		row := frame.Row(i)
		if got, want := back.Model.Predict(row), v2.Model.Predict(row); got != want {
			t.Fatalf("row %d: GBT %v != %v after round trip", i, got, want)
		}
	}
	if back.Guard != v2.Guard {
		t.Errorf("guard config changed: %+v != %+v", back.Guard, v2.Guard)
	}
	if len(back.Ensemble.Members) != len(v2.Ensemble.Members) {
		t.Fatalf("ensemble size changed")
	}
	scaled := make([]float64, len(frame.Row(0)))
	if err := back.Scaler.TransformRow(frame.Row(0), scaled); err != nil {
		t.Fatalf("loaded scaler unusable: %v", err)
	}
	p1 := back.Ensemble.Predict(scaled)
	wantScaled := make([]float64, len(scaled))
	if err := v2.Scaler.TransformRow(frame.Row(0), wantScaled); err != nil {
		t.Fatal(err)
	}
	p2 := v2.Ensemble.Predict(wantScaled)
	if p1 != p2 {
		t.Errorf("ensemble prediction changed: %+v != %+v", p1, p2)
	}
}

func TestLoadRegistryRejectsTamperedModel(t *testing.T) {
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	vdir := filepath.Join(dir, "theta", "v1")
	path := filepath.Join(vdir, bundleName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Any changed byte fails the checksum before a child pointer is looked
	// at.
	raw := append([]byte(nil), good...)
	raw[len(raw)-40] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegistry(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("registry loaded a tampered model: %v", err)
	}
	// Corrupt the first node's left child into a self-loop, then reseal the
	// model section and the bundle: the hardened decoder must still refuse
	// it, and the registry must refuse to come up partially.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteBundle(t, vdir, func(m *manifest) {
		model := bytes.Clone(m.model)
		hlen := int(binary.LittleEndian.Uint32(model[8:]))
		var h struct {
			EdgeLens []int `json:"edge_lens"`
		}
		if err := json.Unmarshal(model[12:12+hlen], &h); err != nil {
			t.Fatal(err)
		}
		left := 12 + hlen + 8*len(v1.Columns) + 4 // past the gain and node 0's feature
		for _, n := range h.EdgeLens {
			left += 8 * n // and every threshold
		}
		if binary.LittleEndian.Uint32(model[left:]) != 1 {
			t.Fatal("fixture's first node has no left child 1")
		}
		binary.LittleEndian.PutUint32(model[left:], 0)
		m.model = resealed(model)
	})
	if _, err := LoadRegistry(dir); err == nil || !strings.Contains(err.Error(), "must point forward") {
		t.Errorf("registry loaded a self-looping model: %v", err)
	}
}

func TestLoadRegistryRejectsManifestMismatch(t *testing.T) {
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	rewriteBundle(t, filepath.Join(dir, "theta", "v1"), func(m *manifest) { m.Version = 3 })
	if _, err := LoadRegistry(dir); err == nil || !strings.Contains(err.Error(), `claims "theta" v3`) {
		t.Errorf("registry accepted bundle/directory version mismatch: %v", err)
	}
	rewriteBundle(t, filepath.Join(dir, "theta", "v1"), func(m *manifest) { m.Version, m.System = 1, "cori" })
	if _, err := LoadRegistry(dir); err == nil || !strings.Contains(err.Error(), `claims "cori" v1`) {
		t.Errorf("registry accepted bundle/directory system mismatch: %v", err)
	}
}

func TestLoadRegistryEmptyRoot(t *testing.T) {
	if _, err := LoadRegistry(t.TempDir()); err == nil {
		t.Error("empty registry root accepted")
	}
}

func TestRegistryPromoteRollback(t *testing.T) {
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	// Default: auto-track the highest version.
	if av, err := reg.ActiveVersion("theta"); err != nil || av != 2 {
		t.Fatalf("default active %d (%v), want 2", av, err)
	}
	// Promote pins v1; version<=0 Gets follow the pin.
	if err := reg.Promote("theta", 1); err != nil {
		t.Fatal(err)
	}
	if mv, err := reg.Get("theta", 0); err != nil || mv.Version != 1 {
		t.Fatalf("pinned Get: %v %v", mv, err)
	}
	// Rollback restores the pre-promote default (v2), and toggling back
	// works because rollback records the state it replaced.
	if v, err := reg.Rollback("theta"); err != nil || v != 2 {
		t.Fatalf("rollback: %d %v", v, err)
	}
	if v, err := reg.Rollback("theta"); err != nil || v != 1 {
		t.Fatalf("second rollback: %d %v", v, err)
	}
	// Errors: unknown version / system, nothing to roll back.
	if err := reg.Promote("theta", 9); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("promote of missing version: %v", err)
	}
	if err := reg.Promote("frontier", 1); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("promote of missing system: %v", err)
	}
	if _, err := reg.Rollback("frontier"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("rollback of missing system: %v", err)
	}
	fresh := NewRegistry()
	if err := fresh.Add(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Rollback("theta"); err == nil {
		t.Error("rollback without promotion succeeded")
	}
}

func TestRegistryPinCurrentAndUnpin(t *testing.T) {
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	if reg.Pinned("theta") {
		t.Error("fresh system reported pinned")
	}
	// Promote the already-active version: a pure pin (freeze
	// auto-tracking) with no prior to return to.
	if err := reg.Promote("theta", 1); err != nil {
		t.Fatal(err)
	}
	if !reg.Pinned("theta") {
		t.Error("pin of the active version not reported")
	}
	// A newer version arriving now stages as a canary instead of serving.
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	if mv, err := reg.Get("theta", 0); err != nil || mv.Version != 1 {
		t.Fatalf("pin did not freeze auto-tracking: %v %v", mv, err)
	}
	// Rollback of a pure pin clears it, restoring auto-tracking — the
	// pin must never be irreversible.
	v, err := reg.Rollback("theta")
	if err != nil || v != 2 {
		t.Fatalf("unpin rollback: %d %v", v, err)
	}
	if reg.Pinned("theta") {
		t.Error("pin survived rollback")
	}
	if mv, err := reg.Get("theta", 0); err != nil || mv.Version != 2 {
		t.Fatalf("auto-tracking not restored: %v %v", mv, err)
	}
}

func TestRegistryShadowTargets(t *testing.T) {
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	// Single version: nothing to compare against.
	if prev, canary := reg.ShadowTargets("theta"); prev != nil || canary != nil {
		t.Errorf("single-version targets: %v %v", prev, canary)
	}
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	// Auto-tracking v2: v1 is the shadow, no canary.
	prev, canary := reg.ShadowTargets("theta")
	if prev == nil || prev.Version != 1 || canary != nil {
		t.Errorf("auto-track targets: %v %v", prev, canary)
	}
	// Pinned to v1: no shadow below, v2 becomes the canary.
	if err := reg.Promote("theta", 1); err != nil {
		t.Fatal(err)
	}
	prev, canary = reg.ShadowTargets("theta")
	if prev != nil || canary == nil || canary.Version != 2 {
		t.Errorf("pinned targets: %v %v", prev, canary)
	}
	if p, c := reg.ShadowTargets("frontier"); p != nil || c != nil {
		t.Errorf("unknown system targets: %v %v", p, c)
	}
}

func TestRegistryAddOrReplaceAndRemove(t *testing.T) {
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	// Replace v1 in place with a distinct bundle identity.
	v1b := v1.derive()
	replaced, err := reg.insert(v1b, true)
	if err != nil || !replaced {
		t.Fatalf("replace: %v %v", replaced, err)
	}
	got, err := reg.Get("theta", 1)
	if err != nil || got != v1b {
		t.Fatalf("replacement not visible: %v %v", got, err)
	}
	if replaced, err := reg.insert(v2, true); err != nil || replaced {
		t.Fatalf("fresh replacing insert: %v %v", replaced, err)
	}
	// Removing the active pinned version drops the pin.
	if err := reg.Promote("theta", 2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("theta", 2); err != nil {
		t.Fatal(err)
	}
	if mv, err := reg.Get("theta", 0); err != nil || mv.Version != 1 {
		t.Fatalf("after removing pinned active: %v %v", mv, err)
	}
	if err := reg.Remove("theta", 2); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("double remove: %v", err)
	}
	// Removing the last version retires the system entirely.
	if err := reg.Remove("theta", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("theta", 0); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("empty system still resolvable: %v", err)
	}
}

func TestRegistryList(t *testing.T) {
	reg := fixtureRegistry(t)
	list := reg.List()
	if len(list) != 2 {
		t.Fatalf("listed %d versions, want 2", len(list))
	}
	if list[0].Version != 1 || list[0].Latest || list[0].Active {
		t.Errorf("v1 entry wrong: %+v", list[0])
	}
	if list[1].Version != 2 || !list[1].Latest || !list[1].Active {
		t.Errorf("v2 entry wrong: %+v", list[1])
	}
	if list[1].EnsembleSize != 3 || list[1].Trees == 0 || list[1].Features == 0 {
		t.Errorf("listing incomplete: %+v", list[1])
	}
}

package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// removeVersionDir deletes <root>/<system>/v<version> from disk.
func removeVersionDir(t *testing.T, root, system string, version int) {
	t.Helper()
	dir := filepath.Join(root, system, "v"+strconv.Itoa(version))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// writeCorruptVersionDir publishes a version directory whose bundle's
// container is sealed, but whose model section is garbage: the load fails on
// the model, not on the container.
func writeCorruptVersionDir(t *testing.T, root, system string, version int) {
	t.Helper()
	m := fuzzBundle(t)
	m.System, m.Version, m.model = system, version, []byte("{not a model")
	writeBundle(t, filepath.Join(root, system, "v"+strconv.Itoa(version)), m)
}

// diskService loads a SaveVersion'd registry from dir into a fresh service
// with a manual-only reloader.
func diskService(t *testing.T, dir string, opt Options) (*Service, *Reloader) {
	t.Helper()
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, opt)
	t.Cleanup(svc.Close)
	rel, err := NewReloader(svc, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return svc, rel
}

func TestReloaderAddReplaceRemove(t *testing.T) {
	_, v1, v2 := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	svc, rel := diskService(t, dir, Options{CacheSize: 1024})

	// No change: a poll is a no-op.
	stats, err := rel.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed() {
		t.Fatalf("no-op poll applied changes: %+v", stats)
	}

	// Add: publish v2.
	if err := SaveVersion(dir, v2); err != nil {
		t.Fatal(err)
	}
	stats, err = rel.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Replaced != 0 || stats.Removed != 0 {
		t.Fatalf("add poll: %+v", stats)
	}
	mv, err := svc.Registry().Get("theta", 0)
	if err != nil || mv.Version != 2 {
		t.Fatalf("latest after add: %v %v", mv, err)
	}

	// Replace: republish v2 in place (same version number, a new manifest —
	// here one more training row on record); the bundle pointer must change
	// and cached v2 entries must be invalidated.
	before := mv
	frame, _, _ := fixture(t)
	if _, _, err := svc.Predict(context.Background(), "theta", 0, [][]float64{frame.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if svc.cache.Len() == 0 {
		t.Fatal("expected a cached v2 entry")
	}
	// The manifest's bytes change, so the fingerprint flips even on coarse
	// clocks.
	republished := v2.derive()
	republished.TrainedOn++
	if err := SaveVersion(dir, republished); err != nil {
		t.Fatal(err)
	}
	stats, err = rel.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replaced != 1 {
		t.Fatalf("replace poll: %+v", stats)
	}
	if stats.Invalidated == 0 {
		t.Error("replace did not invalidate cached entries")
	}
	after, err := svc.Registry().Get("theta", 2)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("replace kept the old bundle pointer")
	}

	// Remove: retire v2 on disk; latest falls back to v1.
	removeVersionDir(t, dir, "theta", 2)
	stats, err = rel.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("remove poll: %+v", stats)
	}
	if mv, err = svc.Registry().Get("theta", 0); err != nil || mv.Version != 1 {
		t.Fatalf("latest after remove: %v %v", mv, err)
	}
	if _, err := svc.Registry().Get("theta", 2); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("retired version still resolvable: %v", err)
	}
}

// TestInPlaceRewriteNeverServesAMixedBundle: SaveVersion rewrites a version
// in place with one rename, so polls racing a run of rewrites each find the
// old bundle or the new one whole — none fails, and whatever version 1
// serves is v1 in every part or the rewrite in every part — and the last
// rewrite is what serves once they stop. CI runs it under -race.
func TestInPlaceRewriteNeverServesAMixedBundle(t *testing.T) {
	frame, v1, v2 := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	svc, rel := diskService(t, dir, Options{})
	rewrite := v2.derive()
	rewrite.Version = 1
	row := frame.Row(0)
	scaled := make([]float64, len(row))
	if err := v1.Scaler.TransformRow(row, scaled); err != nil {
		t.Fatal(err)
	}
	// is reports whether mv is want in every part a load decodes.
	is := func(mv, want *ModelVersion) bool {
		return mv.Model.Predict(row) == want.Model.Predict(row) && mv.Guard == want.Guard &&
			mv.Ensemble.Predict(scaled) == want.Ensemble.Predict(scaled) && reflect.DeepEqual(mv.Reference, want.Reference)
	}
	const rewrites = 20
	done := make(chan error, 1)
	go func() {
		for i := range rewrites {
			mv := rewrite
			if i%2 == 1 {
				mv = v1
			}
			if err := SaveVersion(dir, mv); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	serving := func() *ModelVersion {
		t.Helper()
		res, mv, err := svc.Predict(context.Background(), "theta", 1, [][]float64{row})
		if err != nil || res[0].Log10Throughput != mv.Model.Predict(row) {
			t.Fatalf("predict: %v", err)
		}
		if !is(mv, v1) && !is(mv, rewrite) {
			t.Fatal("version 1 serves a mix of the old bundle and the rewrite")
		}
		return mv
	}
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if _, err := rel.Poll(); err != nil {
			t.Fatalf("poll racing a rewrite: %v", err)
		}
		serving()
	}
	if mv := serving(); !is(mv, v1) {
		t.Fatal("the last rewrite, v1, is not what serves")
	}
}

func TestReloaderBumpVersion(t *testing.T) {
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	svc, rel := diskService(t, dir, Options{})
	v, err := BumpVersion(dir, "theta")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("bumped to v%d, want v2", v)
	}
	if _, err := rel.Poll(); err != nil {
		t.Fatal(err)
	}
	mv, err := svc.Registry().Get("theta", 2)
	if err != nil {
		t.Fatal(err)
	}
	// The bumped bundle differs only in its header's version: the sections
	// are copied as they are and load under the reloader.
	for _, v := range []string{"v1", "v2"} {
		if ents, err := os.ReadDir(filepath.Join(dir, "theta", v)); err != nil || len(ents) != 1 || ents[0].Name() != bundleName {
			t.Fatalf("%s holds %v (%v), want only its bundle", v, ents, err)
		}
	}
	frame, _, _ := fixture(t)
	if got, want := mv.Model.Predict(frame.Row(0)), v1.Model.Predict(frame.Row(0)); got != want {
		t.Errorf("bumped model predicts %v, want %v", got, want)
	}
	if _, err := BumpVersion(dir, "frontier"); err == nil {
		t.Error("bump of unknown system succeeded")
	}
}

// TestConcurrentPredictDuringReloadAndPromote is the concurrency torture
// test: N goroutines predict while reloads (on-disk bumps + polls) and
// promote/rollback churn run concurrently. Every response must succeed and
// report a version that was live at some point; the -race CI job turns any
// torn snapshot or locking slip into a hard failure.
func TestConcurrentPredictDuringReloadAndPromote(t *testing.T) {
	frame, v1, v2 := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	if err := SaveVersion(dir, v2); err != nil {
		t.Fatal(err)
	}
	svc, rel := diskService(t, dir, Options{
		CacheSize:      4096,
		ShadowFraction: 0.5,
	})

	const (
		readers  = 8
		duration = 600 * time.Millisecond
	)
	var (
		highest  atomic.Int64 // highest version ever published
		failures atomic.Int64
		served   atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	highest.Store(2)
	ctx := context.Background()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rows := [][]float64{frame.Row(r), frame.Row(r + 8), frame.Row(r)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				results, mv, err := svc.Predict(ctx, "theta", 0, rows)
				if err != nil {
					failures.Add(1)
					t.Errorf("predict failed: %v", err)
					return
				}
				served.Add(1)
				// No torn reads: the reported version must be one that
				// has been live (1..highest published), and the whole
				// response must come from that single bundle.
				if int64(mv.Version) < 1 || int64(mv.Version) > highest.Load() {
					failures.Add(1)
					t.Errorf("served version %d was never live (max %d)", mv.Version, highest.Load())
					return
				}
				if len(results) != len(rows) {
					failures.Add(1)
					t.Errorf("short response: %d results", len(results))
					return
				}
				want := mv.Model.Predict(rows[0])
				if results[0].Log10Throughput != want {
					failures.Add(1)
					t.Errorf("response row inconsistent with reported bundle v%d", mv.Version)
					return
				}
			}
		}(r)
	}

	// Mutator 1: on-disk version bumps + reload polls.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			v, err := BumpVersion(dir, "theta")
			if err != nil {
				t.Errorf("bump: %v", err)
				return
			}
			// Publish the new ceiling before the reload can serve it.
			highest.Store(int64(v))
			if _, err := rel.Poll(); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
		}
	}()

	// Mutator 2: promote/rollback churn across whatever is registered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(13 * time.Millisecond):
			}
			reg := svc.Registry()
			target := 1 + i%int(highest.Load())
			if err := reg.Promote("theta", target); err != nil && !errors.Is(err, ErrUnknownModel) {
				t.Errorf("promote: %v", err)
				return
			}
			if i%3 == 2 {
				if _, err := reg.Rollback("theta"); err != nil && !errors.Is(err, ErrUnknownModel) {
					// "no promotion to roll back" is legal churn noise.
					continue
				}
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures across %d served requests", failures.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("torture test served nothing")
	}
	t.Logf("served %d requests across versions 1..%d", served.Load(), highest.Load())
}

// TestRegistryGetNeverObservesPartialVersion pins the locking contract:
// concurrent Gets during Add/Remove churn must only ever see fully
// validated bundles, and an invalid Add must be rejected without ever
// becoming visible.
func TestRegistryGetNeverObservesPartialVersion(t *testing.T) {
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}

	invalid := v2.derive()
	invalid.Columns = v2.Columns[:len(v2.Columns)-1] // breaks schema/model width

	var (
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mv, err := reg.Get("theta", 0)
				if err != nil {
					t.Errorf("system vanished mid-churn: %v", err)
					return
				}
				// A visible bundle must always be complete: validate()
				// re-checks every invariant Add enforces.
				if verr := mv.validate(); verr != nil {
					t.Errorf("observed partially-validated bundle: %v", verr)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The invalid bundle must never register.
			if err := reg.Add(invalid); err == nil {
				t.Error("invalid bundle accepted")
				return
			}
			if err := reg.Add(v2); err != nil {
				t.Errorf("add v2: %v", err)
				return
			}
			if err := reg.Remove("theta", 2); err != nil {
				t.Errorf("remove v2: %v", err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestShadowSamplingDeterministic: the mirror decision is a pure function
// of the feature vector, so the same row is always in (or always out) and
// the sampled fraction tracks the configured one.
func TestShadowSamplingDeterministic(t *testing.T) {
	m := &Metrics{}
	s := NewShadow(NewRegistry(), 0.3, m)
	defer s.Close()
	frame, _, _ := fixture(t)
	in := 0
	for i := 0; i < frame.Len(); i++ {
		h := HashKey("theta", 0, frame.Row(i))
		first := s.sampled(h)
		for k := 0; k < 3; k++ {
			if s.sampled(h) != first {
				t.Fatalf("row %d sampling flapped", i)
			}
		}
		if first {
			in++
		}
	}
	frac := float64(in) / float64(frame.Len())
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("sampled fraction %.2f far from configured 0.30", frac)
	}
	if NewShadow(NewRegistry(), 0, m) != nil {
		t.Error("zero fraction built a shadow")
	}
	full := NewShadow(NewRegistry(), 1.0, m)
	defer full.Close()
	for i := 0; i < 32; i++ {
		if !full.sampled(HashKey("theta", 0, frame.Row(i))) {
			t.Errorf("fraction 1.0 skipped row %d", i)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// End-to-end serving tests: a real httptest.Server over Handler, driven
// through HTTP exactly as a client would, with the registry living on disk
// and the reloader watching it. These pin the ISSUE's acceptance demo:
// write a v2 directory while the server answers requests, and within one
// reload interval responses carry v2 with zero failed requests; stale
// cache entries are gone; shadow metrics report the v1-vs-v2 delta.

// e2eHarness is one disk-backed serving stack.
type e2eHarness struct {
	dir string
	svc *Service
	rel *Reloader
	ts  *httptest.Server
}

func newE2EHarness(t *testing.T, interval time.Duration, shadowFraction float64) *e2eHarness {
	t.Helper()
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{
		CacheSize:      4096,
		ShadowFraction: shadowFraction,
	})
	t.Cleanup(svc.Close)
	rel, err := NewReloader(svc, dir, interval)
	if err != nil {
		t.Fatal(err)
	}
	rel.Start()
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(ts.Close)
	return &e2eHarness{dir: dir, svc: svc, rel: rel, ts: ts}
}

// predictOK posts one predict request and fails the test on any non-200.
func (h *e2eHarness) predictOK(t *testing.T, req PredictRequest) PredictResponse {
	t.Helper()
	resp, pr := postPredict(t, h.ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict failed with status %d", resp.StatusCode)
	}
	return pr
}

func (h *e2eHarness) getJSON(t *testing.T, path string, into any) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func (h *e2eHarness) metricsText(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestE2ELiveReload is the acceptance demo: predict on v1, publish v2 on
// disk under traffic, observe the swap within the reload interval with
// zero failed requests, stale-cache eviction, and shadow deltas.
func TestE2ELiveReload(t *testing.T) {
	const interval = 10 * time.Millisecond
	h := newE2EHarness(t, interval, 1.0)
	frame, v1, v2 := fixture(t)
	row := frame.Row(0)

	// v1 serves, and a repeat is answered by the duplicate cache.
	pr := h.predictOK(t, PredictRequest{System: "theta", Row: row})
	if pr.Version != 1 {
		t.Fatalf("initial version %d, want 1", pr.Version)
	}
	if want := v1.Model.Predict(row); pr.Predictions[0].Log10Throughput != want {
		t.Fatalf("v1 prediction %v, want %v", pr.Predictions[0].Log10Throughput, want)
	}
	pr = h.predictOK(t, PredictRequest{System: "theta", Row: row})
	if !pr.Predictions[0].CacheHit {
		t.Fatal("repeat row not served from cache before the swap")
	}

	// Publish v2 while the server keeps answering requests. Every request
	// in the polling loop must succeed (predictOK fails the test on any
	// non-200), and the swap must land within a generous number of reload
	// intervals (CI machines schedule coarsely; one interval is the
	// expectation, 5s the hard bound). The loop probes with a different
	// row than the cached one, so the pre-swap cache entry for `row` is
	// provably untouched until the invalidation check below.
	if err := SaveVersion(h.dir, v2); err != nil {
		t.Fatal(err)
	}
	probe := frame.Row(3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		pr = h.predictOK(t, PredictRequest{System: "theta", Row: probe})
		if pr.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still serving v%d long after publishing v2", pr.Version)
		}
		time.Sleep(interval / 2)
	}
	if want := v2.Model.Predict(probe); pr.Predictions[0].Log10Throughput != want {
		t.Fatalf("v2 prediction %v, want %v", pr.Predictions[0].Log10Throughput, want)
	}

	// Stale cache entries are gone: the same row pinned back to v1 must
	// miss (its pre-swap entry was invalidated on the version bump), then
	// hit again once re-cached.
	pr = h.predictOK(t, PredictRequest{System: "theta", Version: 1, Row: row})
	if pr.Predictions[0].CacheHit {
		t.Error("stale v1 cache entry survived the version bump")
	}
	pr = h.predictOK(t, PredictRequest{System: "theta", Version: 1, Row: row})
	if !pr.Predictions[0].CacheHit {
		t.Error("re-cached v1 row not served from cache")
	}

	// Shadow metrics appear: with fraction 1.0 and v2 active over v1,
	// mirrored rows accumulate the v1-vs-v2 delta asynchronously.
	var mirrored bool
	shadowDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(shadowDeadline) {
		h.predictOK(t, PredictRequest{System: "theta", Rows: frame.Rows()[:8]})
		snaps := h.svc.Metrics().ShadowSnapshots("theta")
		for _, s := range snaps {
			if s.Role == RoleShadow && s.Primary == 2 && s.Target == 1 && s.Mirrored > 0 {
				mirrored = true
			}
		}
		if mirrored {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !mirrored {
		t.Fatal("no shadow rows mirrored to v1 after the swap")
	}
	text := h.metricsText(t)
	for _, want := range []string{
		`ioserve_shadow_mirrored_total{system="theta",primary="2",target="1",role="shadow"}`,
		"ioserve_shadow_mae_log{",
		"ioserve_shadow_ood_agreement{",
		"ioserve_reloads_applied_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if h.svc.Metrics().ReloadApplied.Load() == 0 {
		t.Error("no reload recorded as applied")
	}
	// The fixture's v1 and v2 are different models (different
	// hyperparameter regimes), so the online delta must be non-trivial
	// for at least one mirrored row set; assert the snapshot is coherent.
	for _, s := range h.svc.Metrics().ShadowSnapshots("theta") {
		if s.Mirrored > 0 && s.MAELog < 0 {
			t.Errorf("negative MAE in %+v", s)
		}
		if s.OoDAgreement < 0 || s.OoDAgreement > 1 {
			t.Errorf("OoD agreement out of range in %+v", s)
		}
	}
}

// TestE2EVersionsEndpointAndPromoteRollback drives the admin lifecycle
// over HTTP: list, promote (pin), observe a canary, rollback.
func TestE2EVersionsEndpointAndPromoteRollback(t *testing.T) {
	h := newE2EHarness(t, 0, 0) // manual reloads, no shadow
	_, _, v2 := fixture(t)

	var listing struct {
		Systems []SystemVersions `json:"systems"`
	}
	h.getJSON(t, "/v1/versions", &listing)
	if len(listing.Systems) != 1 || listing.Systems[0].Active != 1 || listing.Systems[0].Pinned {
		t.Fatalf("initial lifecycle view: %+v", listing.Systems)
	}

	// Pin v1, then publish v2: the pin must hold v2 out of serving (it
	// becomes a canary target instead).
	postAction := func(path string, body any, wantStatus int) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(h.ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		return resp
	}
	postAction("/v1/versions/promote", versionActionRequest{System: "theta", Version: 1}, http.StatusOK)
	if err := SaveVersion(h.dir, v2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rel.Poll(); err != nil {
		t.Fatal(err)
	}
	pr := h.predictOK(t, PredictRequest{System: "theta", Row: fixtureFrame.Row(1)})
	if pr.Version != 1 {
		t.Fatalf("pin did not hold: serving v%d", pr.Version)
	}
	// The lifecycle view must report the pin even though v1 was the
	// latest (and already active) version at promote time.
	h.getJSON(t, "/v1/versions", &listing)
	if len(listing.Systems) != 1 || listing.Systems[0].Active != 1 || !listing.Systems[0].Pinned {
		t.Fatalf("pinned lifecycle view: %+v", listing.Systems)
	}
	prev, canary := h.svc.Registry().ShadowTargets("theta")
	if prev != nil {
		t.Errorf("unexpected shadow target below v1: %+v", prev)
	}
	if canary == nil || canary.Version != 2 {
		t.Fatalf("staged v2 is not a canary target: %+v", canary)
	}

	// Promote v2, verify it serves, then roll back to v1.
	postAction("/v1/versions/promote", versionActionRequest{System: "theta", Version: 2}, http.StatusOK)
	if pr = h.predictOK(t, PredictRequest{System: "theta", Row: fixtureFrame.Row(1)}); pr.Version != 2 {
		t.Fatalf("promote did not take: serving v%d", pr.Version)
	}
	postAction("/v1/versions/rollback", versionActionRequest{System: "theta"}, http.StatusOK)
	if pr = h.predictOK(t, PredictRequest{System: "theta", Row: fixtureFrame.Row(1)}); pr.Version != 1 {
		t.Fatalf("rollback did not take: serving v%d", pr.Version)
	}

	// Error paths.
	postAction("/v1/versions/promote", versionActionRequest{System: "theta", Version: 9}, http.StatusNotFound)
	postAction("/v1/versions/promote", versionActionRequest{System: "frontier", Version: 1}, http.StatusNotFound)
	postAction("/v1/versions/promote", versionActionRequest{System: "theta"}, http.StatusBadRequest)
	postAction("/v1/versions/rollback", versionActionRequest{System: "frontier"}, http.StatusNotFound)

	// Forced reload over HTTP: retire v2 on disk and poll via the admin
	// endpoint.
	removeVersionDir(t, h.dir, "theta", 2)
	postAction("/v1/versions/reload", map[string]any{}, http.StatusOK)
	if _, err := h.svc.Registry().Get("theta", 2); err == nil {
		t.Error("retired version still registered after forced reload")
	}
}

// TestE2EReloadSkipsCorruptVersion: a published directory with a manifest
// but corrupt artifacts must not take down serving — the old version keeps
// answering and the reload error is counted.
func TestE2EReloadSkipsCorruptVersion(t *testing.T) {
	h := newE2EHarness(t, 0, 0)
	frame, _, _ := fixture(t)

	writeCorruptVersionDir(t, h.dir, "theta", 7)
	if _, err := h.rel.Poll(); err == nil {
		t.Fatal("corrupt version dir loaded without error")
	}
	pr := h.predictOK(t, PredictRequest{System: "theta", Row: frame.Row(2)})
	if pr.Version != 1 {
		t.Fatalf("corrupt publish changed the served version to %d", pr.Version)
	}
	if h.svc.Metrics().ReloadErrors.Load() == 0 {
		t.Error("reload error not counted")
	}
	if _, err := h.svc.Registry().Get("theta", 7); err == nil {
		t.Error("corrupt version was registered")
	}
}

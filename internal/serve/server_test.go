package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, cacheSize int) (*httptest.Server, *Service) {
	t.Helper()
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{CacheSize: cacheSize})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postPredict(t *testing.T, url string, body any) (*http.Response, PredictResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(resp.Body)
		if err == nil {
			err = DecodePredictReply(data, &pr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

func TestServerPredictBatch(t *testing.T) {
	ts, _ := newTestServer(t, 1024)
	frame, _, v2 := fixture(t)
	rows := [][]float64{frame.Row(0), frame.Row(1), frame.Row(0)}
	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pr.Version != 2 || pr.Count != 3 || len(pr.Predictions) != 3 {
		t.Fatalf("response shape: %+v", pr)
	}
	for i, p := range pr.Predictions {
		want := v2.Model.Predict(rows[i])
		if p.Log10Throughput != want {
			t.Errorf("row %d: %v != %v", i, p.Log10Throughput, want)
		}
		if p.Throughput() <= 0 {
			t.Errorf("row %d: non-positive linear throughput", i)
		}
		// Acceptance: every response row carries the guardrail fields.
		if p.Guard == (Guard{}) {
			t.Fatalf("row %d: no guard annotation", i)
		}
		if p.Guard.EU < 0 || p.Guard.ErrorSource() == "" {
			t.Errorf("row %d: incomplete guard %+v", i, p.Guard)
		}
	}
	// Row 2 repeats row 0 inside one request: the duplicate cache must
	// answer it.
	if pr.Predictions[0].CacheHit {
		t.Error("first occurrence marked as cache hit")
	}
	if !pr.Predictions[2].CacheHit {
		t.Error("exact duplicate not served from cache")
	}
}

func TestServerPredictSingleAndVersionPin(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	frame, v1, _ := fixture(t)
	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Version: 1, Row: frame.Row(5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pr.Version != 1 || pr.Count != 1 {
		t.Fatalf("pinned response: %+v", pr)
	}
	if pr.Predictions[0].Log10Throughput != v1.Model.Predict(frame.Row(5)) {
		t.Error("pinned version served wrong model")
	}
}

func TestServerPredictErrors(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	frame, _, _ := fixture(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown system", PredictRequest{System: "frontier", Row: frame.Row(0)}, http.StatusNotFound},
		{"unknown version", PredictRequest{System: "theta", Version: 42, Row: frame.Row(0)}, http.StatusNotFound},
		{"no rows", PredictRequest{System: "theta"}, http.StatusBadRequest},
		{"missing system", PredictRequest{Row: frame.Row(0)}, http.StatusBadRequest},
		{"width mismatch", PredictRequest{System: "theta", Row: []float64{1, 2}}, http.StatusBadRequest},
		{"row and rows", PredictRequest{System: "theta", Row: frame.Row(0), Rows: [][]float64{frame.Row(1)}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postPredict(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Malformed JSON and wrong method.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d", resp.StatusCode)
	}
}

func TestServerOoDGuardrail(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	frame, _, _ := fixture(t)
	// Push several rows far outside the training distribution; the
	// ensemble must flag a clear majority.
	var rows [][]float64
	for i := 0; i < 16; i++ {
		rows = append(rows, oodRow(frame.Row(i)))
	}
	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	flagged := 0
	for _, p := range pr.Predictions {
		if p.Guard.OoD {
			flagged++
			if p.Guard.ErrorSource() != SourceGeneralization {
				t.Errorf("OoD row diagnosed as %q", p.Guard.ErrorSource())
			}
		}
	}
	if flagged < len(rows)/2 {
		t.Errorf("only %d/%d far-OoD rows flagged", flagged, len(rows))
	}
	// In-distribution rows must be mostly clean.
	resp, pr = postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: frame.Rows()[:32]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	flagged = 0
	for _, p := range pr.Predictions {
		if p.Guard.OoD {
			flagged++
		}
	}
	if flagged > 8 {
		t.Errorf("%d/32 in-distribution rows flagged OoD", flagged)
	}
}

// An admin reply goes through the predict path's writer: encoded before its
// header, so it declares its length (a recorder computes none of its own).
func TestAdminReplyDeclaresItsLength(t *testing.T) {
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	rec := httptest.NewRecorder()
	Handler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("GET /v1/models: status %d, Content-Length %q for a %d-byte body", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
	var listing struct {
		Models []VersionInfo `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil || len(listing.Models) != 2 {
		t.Fatalf("listing %+v (%v)", listing, err)
	}
}

// An admin action takes exactly one JSON value: data after it is refused,
// whether it is a whole token or a value EOF cuts short.
func TestAdminActionRefusesDataAfterTheValue(t *testing.T) {
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	h := Handler(svc)
	const refused = `{"error":"decoding request: data after the JSON value"}` + "\n"
	for _, after := range []string{" 0", "}", "t", `"x`, "-", "1e"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/versions/promote", strings.NewReader(`{"system":"theta","version":1}`+after)))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != refused {
			t.Errorf("promote + %q: %d %q, want 400 %q", after, rec.Code, rec.Body.String(), refused)
		}
	}
}

func TestServerModelsHealthMetrics(t *testing.T) {
	ts, svc := newTestServer(t, 64)
	frame, _, _ := fixture(t)
	postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0), frame.Row(0)}})

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []VersionInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 2 {
		t.Errorf("listed %d models, want 2", len(listing.Models))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string   `json:"status"`
		Systems  []string `json:"systems"`
		Versions int      `json:"versions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Versions != 2 || len(health.Systems) != 1 {
		t.Errorf("health: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"ioserve_requests_total 1",
		"ioserve_predictions_total 2",
		"ioserve_cache_hits_total 1",
		"ioserve_cache_misses_total 1",
		"ioserve_batch_size_mean",
		"# TYPE ioserve_cache_row_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if svc.Metrics().HitRatio() != 0.5 {
		t.Errorf("hit ratio %v, want 0.5", svc.Metrics().HitRatio())
	}
}

func TestServerCacheAcrossRequests(t *testing.T) {
	ts, svc := newTestServer(t, 1024)
	frame, _, _ := fixture(t)
	row := frame.Row(7)
	_, first := postPredict(t, ts.URL, PredictRequest{System: "theta", Row: row})
	_, second := postPredict(t, ts.URL, PredictRequest{System: "theta", Row: row})
	if first.Predictions[0].CacheHit {
		t.Error("cold row hit")
	}
	if !second.Predictions[0].CacheHit {
		t.Error("repeat request missed")
	}
	if first.Predictions[0].Log10Throughput != second.Predictions[0].Log10Throughput {
		t.Error("cached prediction differs")
	}
	if g1, g2 := first.Predictions[0].Guard, second.Predictions[0].Guard; g1 == (Guard{}) || g1 != g2 {
		t.Error("cached guard differs")
	}
	if svc.Metrics().CacheHits.Load() != 1 {
		t.Errorf("cache hits %d, want 1", svc.Metrics().CacheHits.Load())
	}
}

package drift

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"iotaxo/internal/dataset"
	"iotaxo/internal/serve"
)

// HTTP surface: status is open; feedback and the forced retrain are
// admin-gated with the shared serving token.
func TestHandler(t *testing.T) {
	frame, v1, _ := fixture(t)
	cfg := testConfig()
	h := newHarness(t, cfg, v1)
	const token = "drift-admin"
	ts := httptest.NewServer(h.ctl.Handler(token))
	t.Cleanup(ts.Close)

	post := func(path string, body any, hdr map[string]string) (*http.Response, []byte) {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	auth := map[string]string{"Authorization": "Bearer " + token}

	// Feedback is a control-plane action: unauthenticated posts are
	// rejected (they would otherwise steer retraining with fabricated
	// ground truth), authenticated ones ingest and report the active
	// version's error.
	rows := [][]float64{frame.Row(0), frame.Row(1)}
	if resp, _ := post("/v1/feedback", FeedbackRequest{
		System: "theta", Rows: rows, Actual: []float64{frame.Y()[0], frame.Y()[1]},
	}, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("feedback without token: status %d, want 401", resp.StatusCode)
	}
	resp, body := post("/v1/feedback", FeedbackRequest{
		System: "theta", Rows: rows, Actual: []float64{frame.Y()[0], frame.Y()[1]},
	}, auth)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: status %d: %s", resp.StatusCode, body)
	}
	var fr FeedbackResult
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Count != 2 || fr.ActiveVersion != 1 || fr.BufferRows != 2 {
		t.Errorf("feedback result: %+v", fr)
	}

	// Bad feedback is a client error.
	if resp, _ := post("/v1/feedback", FeedbackRequest{System: "theta", Rows: rows, Actual: []float64{1}}, auth); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misaligned feedback: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/v1/feedback", FeedbackRequest{System: "theta", Rows: rows, Actual: []float64{-1, 0}}, auth); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-positive actuals: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/v1/feedback", FeedbackRequest{System: "nope", Rows: rows, Actual: []float64{1, 1}}, auth); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown system feedback: status %d, want 404", resp.StatusCode)
	}

	// Status is open and carries the system.
	sresp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	var report StatusReport
	if err := json.NewDecoder(sresp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || len(report.Systems) != 1 || report.Systems[0].System != "theta" {
		t.Fatalf("status: %d %+v", sresp.StatusCode, report)
	}

	// Forced retrain: 401 without the token; with it, 409 until enough
	// feedback rows are buffered.
	if resp, _ := post("/v1/drift/retrain", retrainRequest{System: "theta"}, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("retrain without token: status %d, want 401", resp.StatusCode)
	}
	if resp, _ := post("/v1/drift/retrain", retrainRequest{System: "nope"}, auth); resp.StatusCode != http.StatusNotFound {
		t.Errorf("retrain unknown system: status %d, want 404", resp.StatusCode)
	}
	if resp, body := post("/v1/drift/retrain", retrainRequest{System: "theta"}, auth); resp.StatusCode != http.StatusConflict {
		t.Errorf("retrain with %d buffered rows: status %d (%s), want 409", fr.BufferRows, resp.StatusCode, body)
	}

	// Fill the buffer past MinRetrainRows and force a retrain for real.
	batch := make([][]float64, 50)
	actual := make([]float64, 50)
	for n := 0; n < cfg.MinRetrainRows; n += len(batch) {
		for i := range batch {
			j := (n + i) % frame.Len()
			batch[i] = frame.Row(j)
			actual[i] = frame.Y()[j]
		}
		if resp, body := post("/v1/feedback", FeedbackRequest{System: "theta", Rows: batch, Actual: actual}, auth); resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback fill: status %d: %s", resp.StatusCode, body)
		}
	}
	if resp, body := post("/v1/drift/retrain", retrainRequest{System: "theta"}, auth); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forced retrain: status %d (%s), want 202", resp.StatusCode, body)
	}
	st := h.waitRetrain(t)
	if st.Phase != PhaseStaged || st.StagedVersion != 2 {
		t.Fatalf("forced retrain did not stage v2: %+v", st)
	}
	// The incumbent stays pinned to v1 while the candidate is evaluated.
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 1 {
		t.Errorf("forced retrain went live uninvited: active v%d", av)
	}
}

// FuzzFeedbackRequest drives arbitrary bodies through POST /v1/feedback.
// Every body gets a 200 or a 400 (a 404 only when it names a system the
// registry does not serve), never a panic, and a start that is not a
// positive finite unix time, or not one per row, never reaches the
// retraining window.
func FuzzFeedbackRequest(f *testing.F) {
	// A two-feature bundle keeps the fuzz worker's setup to milliseconds
	// under coverage instrumentation; the schema is all Feedback checks.
	frame, err := dataset.NewFrame([]string{"posix_a", "posix_b"})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, b := float64(i%8+1), float64(i/8+1)
		if err := frame.Append([]float64{a, b}, 1e6*a*b, dataset.Meta{JobID: i}); err != nil {
			f.Fatal(err)
		}
	}
	mv, err := serve.BuildVersion("theta", 1, frame, serve.BootstrapConfig{Trees: 3, Depth: 2, EnsembleSize: 2, Epochs: 1})
	if err != nil {
		f.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add(mv); err != nil {
		f.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{})
	f.Cleanup(svc.Close)
	ctl := New(svc, Config{Interval: time.Hour, RetrainWindow: 64})
	f.Cleanup(ctl.Close)
	handler := ctl.Handler("")

	rows := [][]float64{{1, 2}, {3, 4}}
	actual := []float64{2e6, 12e6}
	start := []float64{1.6e9, 1.6e9 + 0.5}
	app := []string{"ior", "ior"}
	for _, req := range []FeedbackRequest{
		{System: "theta", Rows: rows, Actual: actual},
		{System: "theta", Rows: rows, Actual: actual, Start: start, App: app},
		{System: "theta", Rows: rows, Actual: actual, Start: start[:1]},
		{System: "theta", Rows: rows, Actual: actual, Start: []float64{0, -5}},
		{System: "theta", Rows: rows, Actual: actual, Start: []float64{}, App: app[:1]},
		{System: "theta", Rows: rows[:1], Actual: actual[:1], Start: start[:1], App: []string{""}},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"system":"theta","rows":[[1]],"actual":[1],"start":[1e400]}`))
	f.Add([]byte(`{"system":"theta","rows":[],"actual":[],"start":["1"]}`))
	f.Add([]byte(`{"system":"theta","rows":[[1]],"actual":[1],"start":null,"app":[1]}`))

	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		return rec
	}
	// The valid seed with start and app is taken whole.
	raw, _ := json.Marshal(FeedbackRequest{System: "theta", Rows: rows, Actual: actual, Start: start, App: app})
	if rec := post(raw); rec.Code != http.StatusOK {
		f.Fatalf("valid feedback: status %d: %s", rec.Code, rec.Body)
	}
	if w := ctl.state("theta").feedback.Recent(0); len(w) != 2 || w[0].meta.Start != start[1] || w[1].meta.App != app[0] {
		f.Fatalf("window after valid feedback: %+v", w)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		var req FeedbackRequest
		switch rec.Code {
		case http.StatusOK:
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for a body encoding/json rejects (%v): %q", err, body)
			}
			if req.Start != nil && len(req.Start) != len(req.Rows) {
				t.Fatalf("200 for %d starts on %d rows: %q", len(req.Start), len(req.Rows), body)
			}
		case http.StatusBadRequest:
		case http.StatusNotFound:
			if json.Unmarshal(body, &req) == nil && req.System == "theta" {
				t.Fatalf("404 for a served system: %s", rec.Body)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		for _, fr := range ctl.state("theta").feedback.Recent(0) {
			if s := fr.meta.Start; s != 0 && !(s > 0 && !math.IsInf(s, 0)) {
				t.Fatalf("start %v reached the window", s)
			}
		}
	})
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
	"iotaxo/internal/uq"
)

// infReplica is a stub whose every prediction is +Inf bytes/s: a finite
// log10 too large for a float64 once raised.
type infReplica struct{ *stubReplica }

func (s infReplica) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	if err := s.stubReplica.Predict(ctx, req, out); err != nil {
		return err
	}
	for i := range out.Predictions {
		out.Predictions[i].Log10Throughput = 400
	}
	return nil
}

// A routed response JSON cannot carry is a counted 500 with the uniform
// error body, not a 200 cut short.
func TestNonFiniteRoutedResponseIsA500(t *testing.T) {
	var logged bytes.Buffer
	stub := newStub("replica-0")
	stub.version = 7
	rt := newTestRouter(t, RouterConfig{Logger: slog.New(slog.NewTextHandler(&logged, nil))}, infReplica{stub})
	before := rt.metrics.errors.Load()
	rec := httptest.NewRecorder()
	Handler(rt).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"system":"theta","row":[400]}`)))
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "non-finite") {
		t.Fatalf("status %d body %q, want 500 with the uniform error body", rec.Code, rec.Body.String())
	}
	if got := rt.metrics.errors.Load(); got != before+1 {
		t.Errorf("iorouter_errors_total moved by %d, want 1", got-before)
	}
	// Logged from the reply that failed, read before its storage went back
	// to the pool.
	if line := logged.String(); !strings.Contains(line, "routed response not encodable") ||
		!strings.Contains(line, "system=theta") || !strings.Contains(line, "version=7") {
		t.Errorf("logged %q, want the failing reply's system and version", line)
	}
}

// The routed reply is appended by hand. Its oracle is encoding/json on the
// same Response, whose predictions marshal through serve's encoder (held to
// encoding/json by serve's FuzzEncodePredictReply): a missing or empty
// split, trace IDs or none, the epoch, and names JSON must escape.
func TestRoutedReplyEncodesAsEncodingJSON(t *testing.T) {
	guarded := serve.GuardConfig{EUThreshold: 0.1}.Diagnose(uq.Prediction{EU: 0.04, AU: 0.01})
	preds := []serve.PredictionResult{{Log10Throughput: 9.5}, {Log10Throughput: -0.25, CacheHit: true, Guard: guarded}}
	for _, out := range []*Response{
		{},
		{PredictResponse: serve.PredictResponse{System: "theta", Version: 2, Count: 2, Predictions: preds, TraceID: "00ab"}, MembershipEpoch: 1},
		{PredictResponse: serve.PredictResponse{System: "<b>&", Predictions: preds[:0]}, Replicas: []ReplicaShare{}},
		{PredictResponse: serve.PredictResponse{System: "theta", Predictions: preds, ServerTimings: &serve.ServerTimings{TotalNs: 5}},
			Replicas: []ReplicaShare{{Replica: "r0", Rows: 1, Version: 2}, {Replica: "r<1>&\u2028", Rows: 1, Version: 3, TraceIDs: []string{"01", "02"}},
				{Replica: "r&2", TraceIDs: []string{}}}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(out); err != nil {
			t.Fatal(err)
		}
		if got, err := out.AppendJSON(nil); err != nil || string(got) != want.String() {
			t.Errorf("appended %s (%v)\nencoding/json %s", got, err, want.String())
		}
	}
}

// A replica that streams a reply past the bound is cut off at its frame's
// head, and the cut counts against it like any other fault.
func TestRemoteBoundsTheReplicaReply(t *testing.T) {
	chunk := []byte(`{"system":"theta","version":1,"count":1,"predictions":[` + strings.Repeat(`{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false},`, 1<<10))
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxReplicaReply+1))
		w.(http.Flusher).Flush()
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the router hung up
			}
		}
	}, nil))
	t.Cleanup(ts.Close)
	rem := newTestRemote(t, "runaway", ts.URL, RemoteConfig{})
	req := &serve.PredictRequest{System: "theta", Row: []float64{1}}
	_, err := predict(context.Background(), rem, req)
	be, ok := err.(*BackendError)
	if !ok || be.Status != http.StatusBadGateway || !be.Fault() {
		t.Fatalf("err = %v, want a 502 BackendError that is a replica fault", err)
	}

	rt := newTestRouter(t, RouterConfig{BreakerThreshold: 1}, rem)
	if _, err := rt.Route(context.Background(), req); err == nil {
		t.Fatal("routed a runaway reply")
	}
	if state := rt.View().Replicas[0].Breaker; state != resilience.StateOpen {
		t.Errorf("breaker %q after a runaway reply, want open", state)
	}
}

// A predict body is exactly one JSON value: ioserve and the router refuse
// anything but white space after it with the same 400, and still take the
// value alone and the value with trailing white space.
func TestPredictRefusesDataAfterTheValue(t *testing.T) {
	dir, pool := e2eFixture(t)
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{CacheSize: 1 << 12})
	t.Cleanup(svc.Close)
	handlers := map[string]http.Handler{
		"ioserve":  serve.NewHandler(svc, serve.HandlerConfig{}),
		"iorouter": NewHandler(newTestRouter(t, RouterConfig{}, NewLocal("r0", svc, nil)), HandlerConfig{}),
	}
	value, err := json.Marshal(serve.PredictRequest{System: "theta", Row: pool[0]})
	if err != nil {
		t.Fatal(err)
	}
	const refused = `{"error":"decoding request: data after the JSON value"}` + "\n"
	for _, tc := range []struct {
		after string
		code  int
	}{
		{"", http.StatusOK},
		{" \n\t\r", http.StatusOK},
		{" 0", http.StatusBadRequest},
		{"garbage", http.StatusBadRequest},
		{"}", http.StatusBadRequest},
		{"t", http.StatusBadRequest},
		{`"`, http.StatusBadRequest},
		{" -", http.StatusBadRequest},
		{"1e", http.StatusBadRequest},
	} {
		for name, h := range handlers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(value)+tc.after)))
			if rec.Code != tc.code || tc.code == http.StatusBadRequest && rec.Body.String() != refused {
				t.Errorf("%s: value + %q answered %d %q, want %d", name, tc.after, rec.Code, rec.Body.String(), tc.code)
			}
		}
	}
}

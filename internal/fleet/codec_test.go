package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// infReplica is a stub whose every prediction is +Inf bytes/s.
type infReplica struct{ *stubReplica }

func (s infReplica) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	if err := s.stubReplica.Predict(ctx, req, out); err != nil {
		return err
	}
	for i := range out.Predictions {
		out.Predictions[i].Throughput = math.Inf(1)
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

// A replica that streams without end is cut off at the reply bound, and the
// cut counts against it like any other fault.
func TestRemoteBoundsTheReplicaReply(t *testing.T) {
	chunk := []byte(`{"system":"theta","version":1,"count":1,"predictions":[` + strings.Repeat(`{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false},`, 1<<10))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the router hung up
			}
		}
	}))
	t.Cleanup(ts.Close)
	rem := NewRemote("runaway", ts.URL, RemoteConfig{})
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

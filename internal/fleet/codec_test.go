package fleet

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// The router's tail on the shared response encoder is json.Marshal's.
func TestAppendResponseMatchesMarshal(t *testing.T) {
	pred := serve.PredictResponse{System: "theta", Version: 2, Count: 1, TraceID: "00ff",
		Predictions: []serve.PredictionResult{{Log10Throughput: 9.5, Throughput: 3162277660.1683793,
			Guard: &serve.Guard{EU: 0.1, AU: 0.2, NoiseFloorPct: 0.05, ErrorSource: serve.SourceModeling}}}}
	for name, resp := range map[string]*Response{
		"bare":    {PredictResponse: pred},
		"shares":  {PredictResponse: pred, Replicas: []ReplicaShare{{Replica: "r0", Rows: 5, Version: 1}, {Replica: "r<1>", Rows: 11, Version: 2}}},
		"traced":  {PredictResponse: pred, Replicas: []ReplicaShare{{Replica: "r0", Rows: 1, Version: 1, TraceIDs: []string{"0a"}}, {Replica: "r1", Rows: 2, TraceIDs: []string{"0b", "0c"}}}, MembershipEpoch: 7},
		"epoch":   {PredictResponse: pred, MembershipEpoch: math.MaxUint64},
		"no rows": {PredictResponse: serve.PredictResponse{System: "é"}, Replicas: []ReplicaShare{}},
	} {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendResponse([]byte("prefix"), resp)
		if err != nil || string(got) != "prefix"+string(want)+"\n" {
			t.Errorf("%s: encoded (%v)\n%s\njson.Marshal\n%s", name, err, got, want)
		}
	}
}

// A routed response JSON cannot carry is a counted 500 with the uniform
// error body, not a 200 cut short.
func TestNonFiniteRoutedResponseIsA500(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{}, newStub("replica-0"))
	resp := &Response{PredictResponse: serve.PredictResponse{System: "theta", Count: 1,
		Predictions: []serve.PredictionResult{{Log10Throughput: 400, Throughput: math.Inf(1)}}}}
	before := rt.metrics.errors.Load()
	rec := httptest.NewRecorder()
	replyRoute(rt, rec, nil, resp)
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "non-finite") {
		t.Fatalf("status %d body %q, want 500 with the uniform error body", rec.Code, rec.Body.String())
	}
	if got := rt.metrics.errors.Load(); got != before+1 {
		t.Errorf("iorouter_errors_total moved by %d, want 1", got-before)
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
	_, err := rem.Predict(context.Background(), req)
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

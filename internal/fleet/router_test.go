package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// stubReplica is a scriptable in-memory Predictor: instant answers, a
// settable failure, and a down switch that fails at the "transport" like
// a killed process.
type stubReplica struct {
	name string

	mu           sync.Mutex
	rows         int
	fail         error  // returned by Predict while set
	down         bool   // Health and Predict both fail (transport-level)
	version      int    // reported model version
	gateInflight int    // reported admission-gate inflight
	lastParent   uint64 // trace parent observed on the last Predict
}

func newStub(name string) *stubReplica {
	return &stubReplica{name: name, version: 1}
}

func (s *stubReplica) Name() string { return s.name }

func (s *stubReplica) setFail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = err
}

func (s *stubReplica) setDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

func (s *stubReplica) rowsServed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

func (s *stubReplica) parent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastParent
}

func (s *stubReplica) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("stub %s: connection refused", s.name)
	}
	if s.fail != nil {
		return s.fail
	}
	rows := req.Rows
	if req.Row != nil {
		rows = [][]float64{req.Row}
	}
	s.rows += len(rows)
	s.lastParent = req.TraceParent
	*out = serve.PredictResponse{System: req.System, Version: s.version, Count: len(rows), Predictions: out.Predictions[:0]}
	for _, row := range rows {
		// Echo the first feature back, so reassembly-order tests can match
		// predictions to their rows.
		out.Predictions = append(out.Predictions, serve.PredictionResult{Log10Throughput: row[0]})
	}
	return nil
}

// predict calls p.Predict into a reply of its own.
func predict(ctx context.Context, p Predictor, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	out := new(serve.PredictResponse)
	if err := p.Predict(ctx, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *stubReplica) Health(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("stub %s: connection refused", s.name)
	}
	return nil
}

func (s *stubReplica) Metrics(ctx context.Context) ([]obs.PromFamily, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, fmt.Errorf("stub %s: connection refused", s.name)
	}
	// A miniature but honest ioserve exposition: a counter and a histogram
	// (merge fodder for the fleet scraper), the admission gauge, and the
	// active-version series the fleet view is rebuilt from.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# HELP ioserve_requests_total Total predict requests.\n# TYPE ioserve_requests_total counter\nioserve_requests_total %d\n", s.rows)
	fmt.Fprintf(&buf, "# HELP ioserve_request_latency_seconds Predict latency.\n# TYPE ioserve_request_latency_seconds histogram\n")
	fmt.Fprintf(&buf, "ioserve_request_latency_seconds_bucket{le=\"0.001\"} %d\n", s.rows)
	fmt.Fprintf(&buf, "ioserve_request_latency_seconds_bucket{le=\"+Inf\"} %d\n", s.rows)
	fmt.Fprintf(&buf, "ioserve_request_latency_seconds_sum 0\nioserve_request_latency_seconds_count %d\n", s.rows)
	fmt.Fprintf(&buf, "# HELP ioserve_admission_inflight Currently admitted requests.\n# TYPE ioserve_admission_inflight gauge\nioserve_admission_inflight %d\n", s.gateInflight)
	fmt.Fprintf(&buf, "ioserve_active_version{system=\"theta\"} %d\n", s.version)
	return obs.ParsePromText(buf.Bytes())
}

func (s *stubReplica) FetchTrace(ctx context.Context, id uint64) (*obs.TraceDetail, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, fmt.Errorf("stub %s: connection refused", s.name)
	}
	return nil, ErrTraceNotFound
}

// newTestRouter builds a router with test-sized breaker settings and no
// background prober (tests drive ProbeOnce explicitly for determinism).
func newTestRouter(t *testing.T, cfg RouterConfig, reps ...Predictor) *Router {
	t.Helper()
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 2
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 50 * time.Millisecond
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	rt, err := NewRouter(cfg, reps...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt
}

// routeRow routes one row and returns the serving replica's name.
func routeRow(t *testing.T, rt *Router, row []float64) string {
	t.Helper()
	resp, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: row})
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if len(resp.Replicas) != 1 {
		t.Fatalf("one row produced %d shares", len(resp.Replicas))
	}
	return resp.Replicas[0].Replica
}

// testRows returns n distinct single-feature rows.
func testRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i) * 1.75, float64(i % 7)}
	}
	return rows
}

// TestRouterFailover: a faulting owner loses the sub-request to the
// next-best replica; the client sees success, never the 5xx.
func TestRouterFailover(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{BreakerThreshold: 3}, reps[0], reps[1], reps[2])

	row := []float64{42, 1}
	owner := routeRow(t, rt, row)
	var ownerStub *stubReplica
	for _, s := range reps {
		if s.name == owner {
			ownerStub = s
		}
	}
	ownerStub.setFail(&BackendError{Status: http.StatusInternalServerError, Msg: "boom"})

	served := routeRow(t, rt, row)
	if served == owner {
		t.Fatalf("failing owner %s still served the row", owner)
	}
	if got := rt.metrics.failovers.Load(); got == 0 {
		t.Fatal("failover not counted")
	}
	// One fault is below the threshold: the owner keeps its arcs.
	view := rt.View()
	for _, r := range view.Replicas {
		if r.Name == owner && !r.InRing {
			t.Fatalf("owner ejected after a single fault: %+v", view)
		}
	}
	// Recovered owner gets its arcs back on the next request.
	ownerStub.setFail(nil)
	if got := routeRow(t, rt, row); got != owner {
		t.Fatalf("recovered owner %s not serving its row (got %s)", owner, got)
	}

	// Failover is load-aware: once a probe has read a busy admission gate
	// on the lower-named survivor, which wins a tie by name, the owner's
	// next fault sends the row to the other survivor.
	var others []*stubReplica // in name order, as reps is
	for _, s := range reps {
		if s != ownerStub {
			others = append(others, s)
		}
	}
	others[0].gateInflight = 5
	rt.ProbeOnce()
	ownerStub.setFail(&BackendError{Status: http.StatusInternalServerError, Msg: "boom"})
	if got := routeRow(t, rt, row); got != others[1].name {
		t.Fatalf("owner fault failed over to %s, want %s (%s reports gate inflight 5)", got, others[1].name, others[0].name)
	}
}

// TestRouterEjectionMinimalRemap: enough faults trip the breaker, the
// replica leaves the ring, and only its rows move; rejoin restores the
// original assignment exactly.
func TestRouterEjectionMinimalRemap(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond},
		reps[0], reps[1], reps[2])

	rows := testRows(60)
	before := make([]string, len(rows))
	for i, row := range rows {
		before[i] = routeRow(t, rt, row)
	}
	victim := before[0]
	var victimStub *stubReplica
	for _, s := range reps {
		if s.name == victim {
			victimStub = s
		}
	}
	victimStub.setDown(true)

	// Two faulted requests trip the breaker; the requests themselves still
	// succeed via failover.
	faulted := 0
	for i, row := range rows {
		if before[i] != victim {
			continue
		}
		routeRow(t, rt, row)
		faulted++
		if faulted == 2 {
			break
		}
	}
	view := rt.View()
	if view.Healthy != 2 {
		t.Fatalf("healthy = %d after ejection, want 2 (%+v)", view.Healthy, view)
	}
	for _, r := range view.Replicas {
		if r.Name == victim && r.InRing {
			t.Fatalf("victim still on the ring: %+v", view)
		}
	}
	if rt.Epoch() == 0 {
		t.Fatal("ejection did not count a remap")
	}

	// Minimal remap: every row a survivor owned still routes to it.
	for i, row := range rows {
		now := routeRow(t, rt, row)
		if now == victim {
			t.Fatalf("row %d routed to the ejected replica", i)
		}
		if before[i] != victim && now != before[i] {
			t.Fatalf("row %d moved %s -> %s though its owner survived", i, before[i], now)
		}
	}

	// Recovery: after the cooldown, a half-open health probe readmits the
	// replica and the original assignment returns byte for byte.
	victimStub.setDown(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		rt.ProbeOnce()
		if rt.View().Healthy == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never rejoined: %+v", rt.View())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, row := range rows {
		if got := routeRow(t, rt, row); got != before[i] {
			t.Fatalf("after rejoin, row %d routed to %s, originally %s", i, got, before[i])
		}
	}
}

// TestRouterShedPropagation: a replica's 429 passes through with its
// Retry-After; shedding is not a fault, so no failover, no ejection.
func TestRouterShedPropagation(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{}, reps[0], reps[1], reps[2])

	row := []float64{7, 7}
	owner := routeRow(t, rt, row)
	for _, s := range reps {
		if s.name == owner {
			s.setFail(&BackendError{Status: http.StatusTooManyRequests, RetryAfter: "2", Msg: "overloaded (queue): retry later"})
		}
	}
	_, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: row})
	be, ok := err.(*BackendError)
	if !ok {
		t.Fatalf("err = %v, want *BackendError", err)
	}
	if be.Status != http.StatusTooManyRequests || be.RetryAfter != "2" {
		t.Fatalf("shed propagated as %+v", be)
	}
	if rt.metrics.failovers.Load() != 0 {
		t.Fatal("shed must not fail over (it would dogpile the fleet)")
	}
	if view := rt.View(); view.Healthy != 3 {
		t.Fatalf("shed cost ring membership: %+v", view)
	}
}

// TestRouterBadRequest: validation failures are 400s, before any dispatch.
func TestRouterBadRequest(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{}, newStub("replica-0"))
	for _, req := range []*serve.PredictRequest{
		{},                // no system
		{System: "theta"}, // no rows
		{System: "theta", Row: []float64{1}, Rows: [][]float64{{2}}}, // both forms
	} {
		_, err := rt.Route(context.Background(), req)
		be, ok := err.(*BackendError)
		if !ok || be.Status != http.StatusBadRequest {
			t.Fatalf("Route(%+v) err = %v, want 400", req, err)
		}
	}
}

// TestRouterAllDown: a fleet with no ring members answers 503.
func TestRouterAllDown(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1")}
	rt := newTestRouter(t, RouterConfig{BreakerThreshold: 1}, reps[0], reps[1])
	for _, s := range reps {
		s.setDown(true)
	}
	rt.ProbeOnce()
	if view := rt.View(); view.Healthy != 0 {
		t.Fatalf("healthy = %d, want 0", view.Healthy)
	}
	_, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{1}})
	be, ok := err.(*BackendError)
	if !ok || be.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503", err)
	}
}

// TestRouterBatchReassembly: a batch fans out per owner and reassembles
// in the original row order, with shares summing to the batch size.
func TestRouterBatchReassembly(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{}, reps[0], reps[1], reps[2])

	rows := testRows(40)
	resp, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(rows) || len(resp.Predictions) != len(rows) {
		t.Fatalf("count %d / %d preds for %d rows", resp.Count, len(resp.Predictions), len(rows))
	}
	for i, p := range resp.Predictions {
		if p.Log10Throughput != rows[i][0] {
			t.Fatalf("prediction %d = %v, want %v (order scrambled)", i, p.Log10Throughput, rows[i][0])
		}
	}
	total := 0
	for _, sh := range resp.Replicas {
		total += sh.Rows
		if sh.Version != 1 {
			t.Fatalf("share %+v reports version %d", sh, sh.Version)
		}
	}
	if total != len(rows) {
		t.Fatalf("shares sum to %d, want %d: %+v", total, len(rows), resp.Replicas)
	}
	if len(resp.Replicas) < 2 {
		t.Fatalf("40 distinct rows all fell on one replica: %+v", resp.Replicas)
	}
}

// TestHandlerPredict covers the HTTP surface: the predict contract, the
// fleet trace ID on X-Trace-Id, its propagation to replicas as the trace
// parent, and the fleet/health/metrics views.
func TestHandlerPredict(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{}, reps[0], reps[1], reps[2])
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(serve.PredictRequest{System: "theta", Rows: testRows(12)})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceHex := resp.Header.Get(serve.TraceHeader)
	if traceHex == "" {
		t.Fatal("no X-Trace-Id on the routed response")
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != traceHex {
		t.Fatalf("body trace %q != header trace %q", out.TraceID, traceHex)
	}
	if len(out.Replicas) == 0 {
		t.Fatal("routed response carries no replica shares")
	}
	fid, err := obs.ParseTraceID(traceHex)
	if err != nil {
		t.Fatal(err)
	}
	propagated := false
	for _, s := range reps {
		if s.parent() == fid {
			propagated = true
		}
	}
	if !propagated {
		t.Fatalf("no replica observed fleet trace %s as its parent", traceHex)
	}

	// Fleet view.
	fleetResp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fleetResp.Body.Close()
	var view FleetView
	if err := json.NewDecoder(fleetResp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Healthy != 3 || len(view.Replicas) != 3 {
		t.Fatalf("fleet view %+v", view)
	}

	// Health flips to 503 when the ring empties.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}

	// Metrics render the router series and the per-replica breaker series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"iorouter_requests_total 1",
		"iorouter_replicas_healthy 3",
		`iorouter_replica_rows_total{replica="replica-0"}`,
		"iorouter_failovers_total 0",
		// Stubs have no connections to count: the series is declared, and its
		// rows are TestRemoteClosesIdleOnStop's.
		"# TYPE iorouter_replica_connections_total counter",
		`ioserve_breaker_state{name="replica-0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHandlerErrors: HTTP-level error mapping, including Retry-After
// pass-through on sheds.
func TestHandlerErrors(t *testing.T) {
	stub := newStub("replica-0")
	rt := newTestRouter(t, RouterConfig{}, stub)
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}

	// Shed with Retry-After.
	stub.setFail(&BackendError{Status: http.StatusTooManyRequests, RetryAfter: "3", Msg: "overloaded"})
	body, _ := json.Marshal(serve.PredictRequest{System: "theta", Row: []float64{1}})
	resp2, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests || resp2.Header.Get("Retry-After") != "3" {
		t.Fatalf("shed = %d, Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	// GET on predict.
	resp3, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict = %d", resp3.StatusCode)
	}
}

// fetchText GETs a URL and returns the body as a string.
func fetchText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestHandlerFleetMetrics: after one probe sweep, the router's /metrics
// carries the per-replica up/staleness gauges and the fleet-merged replica
// series — counters summed across replicas, from the same single-cadence
// scrape that feeds the failover order and the version view.
func TestHandlerFleetMetrics(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	reps[1].gateInflight = 5
	rt := newTestRouter(t, RouterConfig{}, reps[0], reps[1], reps[2])
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)

	// Serve some rows so the stub counters diverge, then scrape.
	if _, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Rows: testRows(30)}); err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce()

	status, text := fetchText(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	for _, want := range []string{
		`iorouter_replica_up{replica="replica-0"} 1`,
		`iorouter_replica_up{replica="replica-1"} 1`,
		`iorouter_replica_up{replica="replica-2"} 1`,
		"iorouter_replica_scrape_age_seconds",
		// Merged counter: stub counters track rows served, so the fleet sum
		// is the whole batch.
		"ioserve_requests_total 30",
		// Merged histogram: buckets and counts sum across replicas.
		`ioserve_request_latency_seconds_bucket{le="+Inf"} 30`,
		"ioserve_request_latency_seconds_count 30",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("fleet metrics missing %q in:\n%s", want, text)
		}
	}
	// Gauges are point-in-time per process: they must not be merged into
	// fleet sums (the up/staleness gauges above are the router's own).
	if strings.Contains(text, "Fleet-aggregated: Currently admitted") {
		t.Fatal("per-replica gauge leaked into the fleet merge")
	}

	// The same scrape feeds the failover order's load and the versions.
	view := rt.View()
	for _, r := range view.Replicas {
		wantGate := int64(0)
		if r.Name == "replica-1" {
			wantGate = 5
		}
		if r.GateInflight != wantGate {
			t.Fatalf("replica %s gate inflight %d, want %d", r.Name, r.GateInflight, wantGate)
		}
		if r.ActiveVersions["theta"] != 1 {
			t.Fatalf("replica %s versions %+v", r.Name, r.ActiveVersions)
		}
	}

	// A dead replica drops its up gauge but keeps the last-good cache.
	reps[2].setDown(true)
	rt.ProbeOnce()
	_, text = fetchText(t, ts.URL+"/metrics")
	if !strings.Contains(text, `iorouter_replica_up{replica="replica-2"} 0`) {
		t.Fatalf("down replica still reports up:\n%s", text)
	}
}

// TestHandlerSLO: /v1/slo answers 409 without -slo, and with an SLO
// configured reports objectives over routed traffic plus iorouter_slo_*
// series on /metrics.
func TestHandlerSLO(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{}, newStub("replica-0"))
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)
	if status, _ := fetchText(t, ts.URL+"/v1/slo"); status != http.StatusConflict {
		t.Fatalf("/v1/slo without -slo = %d, want 409", status)
	}

	specs, err := obs.ParseSLO("predict:p99=250ms,avail=99")
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.NewSLO(specs)
	ts2 := httptest.NewServer(NewHandler(rt, HandlerConfig{SLO: slo}))
	t.Cleanup(ts2.Close)

	body, _ := json.Marshal(serve.PredictRequest{System: "theta", Row: []float64{1, 2}})
	resp, err := http.Post(ts2.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts2.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var out struct {
		Objectives []obs.SLOStatus `json:"objectives"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Objectives) != 2 {
		t.Fatalf("objectives = %+v", out.Objectives)
	}
	for _, o := range out.Objectives {
		if o.Class != "predict" || o.Requests != 1 || o.Bad != 0 || !o.Met {
			t.Fatalf("objective %+v after one good request", o)
		}
	}
	post, err := http.Post(ts2.URL+"/v1/slo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/slo = %d, want 405", post.StatusCode)
	}

	_, text := fetchText(t, ts2.URL+"/metrics")
	for _, want := range []string{
		`iorouter_slo_requests_total{class="predict",objective="predict:p99<=250ms"} 1`,
		"iorouter_slo_budget_consumed",
		`window="5m"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("SLO metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHandlerTraceEndpoints: /v1/trace answers 409 when tracing is off;
// with tracing on, the listing shows routed traces and /v1/trace/{id}
// stitches — degrading hops whose replicas hold no trace to explicit
// missing markers instead of failing.
func TestHandlerTraceEndpoints(t *testing.T) {
	rtOff := newTestRouter(t, RouterConfig{}, newStub("replica-0"))
	tsOff := httptest.NewServer(Handler(rtOff))
	t.Cleanup(tsOff.Close)
	if status, _ := fetchText(t, tsOff.URL+"/v1/trace"); status != http.StatusConflict {
		t.Fatalf("trace list without tracing = %d, want 409", status)
	}

	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{TraceEvery: 1}, reps[0], reps[1], reps[2])
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(serve.PredictRequest{System: "theta", Rows: testRows(20)})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	traceHex := resp.Header.Get(serve.TraceHeader)
	resp.Body.Close()

	status, text := fetchText(t, ts.URL+"/v1/trace")
	if status != http.StatusOK || !strings.Contains(text, traceHex) {
		t.Fatalf("trace list = %d, body:\n%s", status, text)
	}

	gresp, err := http.Get(ts.URL + "/v1/trace/" + traceHex)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("stitched get = %d", gresp.StatusCode)
	}
	var st obs.StitchedTrace
	if err := json.NewDecoder(gresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != traceHex || len(st.Hops) == 0 {
		t.Fatalf("stitched trace %+v", st)
	}
	// Stubs retain no traces, so every hop degrades to a missing marker —
	// the stitch itself must still succeed with the router-side view.
	for _, hop := range st.Hops {
		if !hop.Missing {
			t.Fatalf("stub hop not marked missing: %+v", hop)
		}
	}

	if status, _ := fetchText(t, ts.URL+"/v1/trace/zzzz"); status != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", status)
	}
	if status, _ := fetchText(t, ts.URL+"/v1/trace/00000000000000ff"); status != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", status)
	}
}

// TestHandlerTraceAdminGate: with an admin token configured, the trace
// endpoints refuse anonymous requests and admit bearer-token ones.
func TestHandlerTraceAdminGate(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{TraceEvery: 1}, newStub("replica-0"))
	ts := httptest.NewServer(NewHandler(rt, HandlerConfig{AdminToken: "sekrit"}))
	t.Cleanup(ts.Close)

	if status, _ := fetchText(t, ts.URL+"/v1/trace"); status != http.StatusUnauthorized {
		t.Fatalf("anonymous trace list = %d, want 401", status)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/trace", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized trace list = %d, want 200", resp.StatusCode)
	}
}

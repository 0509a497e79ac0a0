package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// expiringCtx is a context whose deadline passes when the test closes done,
// so "expired while queued" is an ordered event, not a race against a timer.
type expiringCtx struct {
	context.Context
	done chan struct{}
}

func (c expiringCtx) Done() <-chan struct{} { return c.done }

func (c expiringCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// waitFor polls cond: the tests below order themselves on the service's own
// counters, never on a sleep standing in for one.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestBatcherDeadlineMidQueue: callers whose deadline expires while they
// wait for the one evaluation slot get context.DeadlineExceeded, evaluate
// nothing, are counted in DeadlineDropped, and leave the service fully
// serviceable.
func TestBatcherDeadlineMidQueue(t *testing.T) {
	frame, _, v2 := fixture(t)
	g, inj := newEvalGate()
	svc := NewService(fixtureRegistry(t), Options{Workers: 1, Chaos: inj})
	t.Cleanup(svc.Close)
	t.Cleanup(g.open) // before Close, which waits for a parked evaluation
	m := svc.Metrics()
	predict := func(ctx context.Context, i int) error {
		_, _, err := svc.Predict(ctx, "theta", 2, [][]float64{frame.Row(i)})
		return err
	}

	// The pinning request holds the slot inside its evaluation.
	pinErr := make(chan error, 1)
	go func() { pinErr <- predict(context.Background(), 0) }()
	g.waitEntered(t)

	const n = 24
	ctx := expiringCtx{context.Background(), make(chan struct{})}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = predict(ctx, 1+i)
		}(i)
	}
	waitFor(t, "every caller to wait for the held slot", func() bool {
		return m.QueueDepthFn() == n && m.InflightWavesFn() == 1+n
	})
	close(ctx.done)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("caller %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if got := m.DeadlineDropped.Load(); got != n {
		t.Errorf("DeadlineDropped = %d, want %d", got, n)
	}
	g.open()
	if err := <-pinErr; err != nil {
		t.Fatalf("pinning request failed: %v", err)
	}
	// Only the pinning request's row was ever evaluated.
	if got := m.BatchedRows.Load(); got != 1 {
		t.Errorf("%d rows evaluated, want 1 (expired rows must not be)", got)
	}
	res, _, err := svc.Predict(context.Background(), "theta", 2, [][]float64{frame.Row(n + 1)})
	if err != nil {
		t.Fatalf("service unserviceable after deadline storm: %v", err)
	}
	if res[0].Log10Throughput != v2.Model.Predict(frame.Row(n+1)) {
		t.Error("post-storm prediction does not match direct evaluation")
	}
	if q, b := m.QueueDepthFn(), m.InflightWavesFn(); q != 0 || b != 0 {
		t.Errorf("%d callers waiting, %d waiting or evaluating after the storm, want 0 and 0", q, b)
	}
}

// TestBatcherPanicIsolation: every evaluation panics; every request gets
// ErrEvalPanic back, and its slot is returned: the one slot serves the next.
func TestBatcherPanicIsolation(t *testing.T) {
	frame, _, _ := fixture(t)
	inj := chaos.NewInjector(chaos.Config{PanicProb: 1}, 1)
	svc := NewService(fixtureRegistry(t), Options{Workers: 1, Chaos: inj})
	t.Cleanup(svc.Close)
	for i := 0; i < 3; i++ {
		_, _, err := svc.Predict(context.Background(), "theta", 2, [][]float64{frame.Row(i)})
		if !errors.Is(err, ErrEvalPanic) {
			t.Fatalf("request %d: err = %v, want ErrEvalPanic", i, err)
		}
	}
	if got := svc.Metrics().PanicsRecovered.Load(); got != 3 {
		t.Errorf("PanicsRecovered = %d, want 3", got)
	}
}

func TestBatcherChaosError(t *testing.T) {
	frame, _, _ := fixture(t)
	inj := chaos.NewInjector(chaos.Config{ErrorProb: 1}, 1)
	svc := NewService(fixtureRegistry(t), Options{Workers: 1, Chaos: inj})
	t.Cleanup(svc.Close)
	_, _, err := svc.Predict(context.Background(), "theta", 2, [][]float64{frame.Row(0)})
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want chaos.ErrInjected", err)
	}
}

func TestServerAdmissionSheds(t *testing.T) {
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 1, HardLimit: 2, RetryAfter: 2 * time.Second})
	set := resilience.NewSet()
	set.SetGate(gate)
	svc.Metrics().RegisterCollector(set.Collect)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Gate: gate, Resilience: set}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)

	// Hold the only slot: the next predict must shed with 429 + advice.
	if ok, _ := gate.Admit(resilience.ClassPredict); !ok {
		t.Fatal("setup admit failed")
	}
	resp, _ := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want 2", resp.Header.Get("Retry-After"))
	}
	gate.Release(-1)

	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0)}})
	if resp.StatusCode != http.StatusOK || len(pr.Predictions) != 1 {
		t.Fatalf("post-release predict: status %d, %d predictions", resp.StatusCode, len(pr.Predictions))
	}
	if in := gate.Status().Inflight; in != 0 {
		t.Fatalf("handler leaked a gate slot: inflight=%d", in)
	}

	body := scrape(t, svc.Metrics())
	for _, want := range []string{
		`ioserve_admission_shed_total{reason="queue"} 1`,
		"ioserve_admission_admitted_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerDeadline(t *testing.T) {
	reg := fixtureRegistry(t)
	// Every evaluation takes ~50ms, so millisecond deadlines expire while
	// waiting for the one slot and generous ones ride through.
	inj := chaos.NewInjector(chaos.Config{Latency: 50 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(reg, Options{Workers: 1, CacheSize: 0, Chaos: inj})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{DefaultDeadline: 2 * time.Second}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)
	row := [][]float64{frame.Row(0)}

	post := func(timeoutMs string) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(PredictRequest{System: "theta", Rows: row})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if timeoutMs != "" {
			req.Header.Set(DeadlineHeader, timeoutMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// The generous default deadline serves despite the injected latency.
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("default deadline: status %d", resp.StatusCode)
	}
	// Pin the one slot in a slow evaluation, then send a request whose 5ms
	// header deadline expires while it waits for that slot: it is dropped
	// before evaluation and answered 504.
	pinDone := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(PredictRequest{System: "theta", Rows: row})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(string(raw)))
		if err == nil {
			resp.Body.Close()
		}
		pinDone <- err
	}()
	// An evaluation is counted once its caller holds the slot, just before
	// it runs: the second one is the pinning request's, so whatever arrives
	// now waits behind it. (InflightWavesFn cannot say so: the first request
	// is still counted for a moment after its response has been read.)
	waitFor(t, "the pinning request to enter the slow evaluation", func() bool {
		return svc.Metrics().Batches.Load() == 2
	})
	if resp := post("5"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("5ms header deadline: status %d, want 504", resp.StatusCode)
	}
	if err := <-pinDone; err != nil {
		t.Fatalf("pinning request failed: %v", err)
	}
	if got := svc.Metrics().DeadlineDropped.Load(); got != 1 {
		t.Errorf("DeadlineDropped = %d, want the expired request's 1", got)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-expiry predict: status %d", resp.StatusCode)
	}
	// Malformed header values are a client error, not a served request.
	if resp := post("soon"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: status %d, want 400", resp.StatusCode)
	}
	if resp := post("-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative header: status %d, want 400", resp.StatusCode)
	}
}

// An X-Request-Timeout-Ms too large for a time.Duration is clamped, not
// wrapped, so it is never tighter than the server's default deadline, which
// still bounds the request. Unclamped, 9223372036855 ms wrapped to
// −2 562 047 h, won the tighter-of check and left the request with no
// deadline at all.
func TestOverflowingDeadlineHeaderKeepsTheDefault(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Latency: 50 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(fixtureRegistry(t), Options{Chaos: inj})
	t.Cleanup(svc.Close)
	h := NewHandler(svc, HandlerConfig{DefaultDeadline: 5 * time.Millisecond})
	frame, _, _ := fixture(t)
	raw, err := json.Marshal(PredictRequest{System: "theta", Row: frame.Row(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []string{"9223372036855", "9223372036854775807"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(raw)))
		req.Header.Set(DeadlineHeader, ms)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s ms against a 5 ms default, 50 ms evaluations: status %d, want 504", ms, rec.Code)
		}
	}
}

// TestReloaderBreaker pins the breaker's failure taxonomy: a corrupt
// version dir is the skip-and-keep-serving policy (poll errors, breaker
// stays closed), a wholesale scan failure is an outage signal (breaker
// trips), and a forced poll runs even while open, acting as the manual
// probe that closes it.
func TestReloaderBreaker(t *testing.T) {
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{})
	t.Cleanup(svc.Close)
	rel, err := NewReloader(svc, dir, 0) // manual polls
	if err != nil {
		t.Fatal(err)
	}
	br := resilience.NewBreaker("reload", resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	rel.SetResilience(br)

	// A chaos-corrupted version dir fails to load but the scan succeeded:
	// poll reports the error, the breaker stays closed, serving continues.
	inj := chaos.NewInjector(chaos.Config{CorruptProb: 1}, 3)
	if _, err := inj.CorruptRegistry(dir); err != nil {
		t.Fatal(err)
	}
	stats, err := rel.Poll()
	if err == nil || stats.Failed == 0 {
		t.Fatalf("corrupt dir: stats %+v err %v, want a counted failure", stats, err)
	}
	if errors.Is(err, errScanFailed) {
		t.Fatal("per-dir corruption misclassified as a wholesale scan failure")
	}
	if st := br.Status(); st.State != resilience.StateClosed {
		t.Fatalf("breaker %s after per-dir corruption, want closed", st.State)
	}
	if _, err := reg.Get("theta", 1); err != nil {
		t.Fatalf("live bundle stopped serving: %v", err)
	}

	// Destroying the root makes the scan itself fail: one failure at
	// threshold 1 trips the breaker.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Poll(); !errors.Is(err, errScanFailed) {
		t.Fatalf("destroyed root: err %v, want errScanFailed", err)
	}
	if st := br.Status(); st.State != resilience.StateOpen {
		t.Fatalf("breaker %s after scan failure, want open", st.State)
	}

	// Restore the root: a forced poll runs despite the open breaker (the
	// ticker loop is what Allow gates) and its success closes the circuit.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Poll(); err != nil {
		t.Fatalf("forced poll after restore: %v", err)
	}
	if st := br.Status(); st.State != resilience.StateClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st.State)
	}
}

func TestResilienceEndpoint(t *testing.T) {
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{})
	t.Cleanup(svc.Close)

	set := resilience.NewSet()
	set.SetGate(resilience.NewGate(resilience.GateConfig{MaxInflight: 8}))
	set.NewBreaker("reload", resilience.BreakerConfig{})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Resilience: set}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/resilience")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st resilience.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.MaxInflight != 8 || len(st.Breakers) != 1 {
		t.Fatalf("status %+v", st)
	}
	post, err := http.Post(ts.URL+"/v1/resilience", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed || string(body) != "{\"error\":\"GET only\"}\n" {
		t.Fatalf("POST /v1/resilience = %d %q, want 405 {\"error\":\"GET only\"}", post.StatusCode, body)
	}

	// Without a configured resilience layer the endpoint reports 409, like
	// the other unconfigured subsystem endpoints.
	bare := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(bare.Close)
	resp2, err := http.Get(bare.URL + "/v1/resilience")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("unconfigured status %d, want 409", resp2.StatusCode)
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/serve"
)

// Deadline propagation on the router->replica hop: the forwarded
// X-Request-Timeout-Ms must be the client's budget minus the router time
// already spent, and an exhausted budget must fail fast without touching
// the replica.

// TestRemainingBudgetMs pins the subtraction arithmetic: the forwarded
// budget is the context deadline minus "now" at dispatch — the elapsed
// router time is subtracted implicitly because the handler set the
// deadline at arrival.
func TestRemainingBudgetMs(t *testing.T) {
	base := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), base.Add(50*time.Millisecond))
	defer cancel()

	// 13ms of router time already burned: 50 - 13 = 37 left.
	ms, ok := remainingBudgetMs(ctx, base.Add(13*time.Millisecond))
	if !ok || ms != 37 {
		t.Fatalf("remainingBudgetMs = %d,%v, want 37,true", ms, ok)
	}
	// At the deadline exactly: zero budget.
	if ms, _ := remainingBudgetMs(ctx, base.Add(50*time.Millisecond)); ms != 0 {
		t.Fatalf("budget at deadline = %d, want 0", ms)
	}
	// Past the deadline: negative.
	if ms, _ := remainingBudgetMs(ctx, base.Add(60*time.Millisecond)); ms >= 0 {
		t.Fatalf("budget past deadline = %d, want < 0", ms)
	}
	// Under a millisecond left: rounded up to one, not down to none.
	if ms, _ := remainingBudgetMs(ctx, base.Add(49100*time.Microsecond)); ms != 1 {
		t.Fatalf("budget with 900µs left = %d, want 1", ms)
	}
	// No deadline: no budget.
	if _, ok := remainingBudgetMs(context.Background(), base); ok {
		t.Fatal("deadline-free context reported a budget")
	}
}

// TestRemoteSendsASubMillisecondBudget: a routed request with under a
// millisecond left still reaches the replica, with a budget of 1 ms; only
// one whose deadline has passed fails before dispatch.
func TestRemoteSendsASubMillisecondBudget(t *testing.T) {
	budgets := make(chan string, 2)
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		budgets <- r.Header.Get(serve.DeadlineHeader)
		answerEmptyPredictions(w, body)
	}, nil))
	t.Cleanup(ts.Close)
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	req := &serve.PredictRequest{System: "theta", Rows: [][]float64{{1}}}
	if _, err := predict(context.Background(), rem, req); err != nil { // a pooled, upgraded connection
		t.Fatal(err)
	}
	if got := <-budgets; got != "" {
		t.Fatalf("a deadline-free hop sent a budget of %q ms", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Microsecond)
	defer cancel()
	_, err := predict(ctx, rem, req)
	if err != nil && strings.Contains(err.Error(), "before dispatch") {
		t.Fatalf("a hop with 900µs left: %v, want it sent", err)
	}
	if got := <-budgets; got != "1" {
		t.Errorf("the replica saw a budget of %q ms, want 1", got)
	}
}

// TestRemoteForwardsRemainingBudget drives a Remote against a recording
// server: the forwarded header must reflect the time the "router" burned
// before dispatch, not the client's original budget.
func TestRemoteForwardsRemainingBudget(t *testing.T) {
	var gotBudget atomic.Int64
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.ParseInt(r.Header.Get(serve.DeadlineHeader), 10, 64)
		if err != nil {
			t.Errorf("bad %s header: %v", serve.DeadlineHeader, err)
		}
		gotBudget.Store(ms)
		json.NewEncoder(w).Encode(serve.PredictResponse{
			System: "theta", Count: 1,
			Predictions: make([]serve.PredictionResult, 1),
		})
	}, nil))
	t.Cleanup(ts.Close)
	rem := newTestRemote(t, "replica-http", ts.URL, RemoteConfig{})

	// Client budget 30s, 100ms of it burned by router work before dispatch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	time.Sleep(100 * time.Millisecond)
	if _, err := predict(ctx, rem, &serve.PredictRequest{System: "theta", Row: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ms := gotBudget.Load()
	if ms <= 0 || ms > 29900 {
		t.Fatalf("forwarded budget %dms does not subtract the 100ms of elapsed router time from 30000ms", ms)
	}
}

// deadlineReplica reports the deadline of each Predict's context, the zero
// time when it has none.
type deadlineReplica struct {
	*stubReplica
	got chan time.Time
}

func (d deadlineReplica) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	dl, _ := ctx.Deadline()
	d.got <- dl
	return d.stubReplica.Predict(ctx, req, out)
}

// An X-Request-Timeout-Ms too large for a time.Duration still bounds the
// routed request: clamped, not wrapped negative, which left it with none.
func TestRouterClampsAnOverflowingDeadlineHeader(t *testing.T) {
	rep := deadlineReplica{newStub("replica-0"), make(chan time.Time, 1)}
	h := Handler(newTestRouter(t, RouterConfig{}, rep))
	for _, ms := range []string{"9223372036855", "9223372036854775807"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"system":"theta","row":[1]}`))
		req.Header.Set(serve.DeadlineHeader, ms)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s ms: status %d: %s", ms, rec.Code, rec.Body)
		}
		if dl := <-rep.got; dl.Before(time.Now().AddDate(100, 0, 0)) {
			t.Errorf("%s ms: the replica's context has deadline %v, want the largest a Duration holds", ms, dl)
		}
	}
}

// TestRemoteFailsFastOnExhaustedBudget: a context whose deadline already
// passed must not reach the replica at all, and the error must carry
// context.DeadlineExceeded so the router skips breaker penalty/failover.
func TestRemoteFailsFastOnExhaustedBudget(t *testing.T) {
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		t.Error("replica received a request with an exhausted budget")
	}, nil))
	t.Cleanup(ts.Close)
	rem := newTestRemote(t, "replica-http", ts.URL, RemoteConfig{})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := predict(ctx, rem, &serve.PredictRequest{System: "theta", Row: []float64{1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestDispatchDeadline504: the router maps an exhausted client budget to
// 504 without burning a breaker or failing over — the client's clock ran
// out, the replica did nothing wrong.
func TestDispatchDeadline504(t *testing.T) {
	stub := newStub("replica-0")
	rt := newTestRouter(t, RouterConfig{}, stub, newStub("replica-1"), newStub("replica-2"))
	stub.setFail(fmt.Errorf("stub: budget gone: %w", context.DeadlineExceeded))

	// Hunt for a row the failing stub owns so dispatch hits it first.
	var err error
	for i := 0; i < 256; i++ {
		row := []float64{float64(i), 3}
		_, rerr := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: row})
		if rerr != nil {
			err = rerr
			break
		}
	}
	if err == nil {
		t.Fatal("no row routed to the deadline-failing replica")
	}
	be, ok := err.(*BackendError)
	if !ok || be.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want 504 BackendError", err)
	}
	if rt.metrics.failovers.Load() != 0 {
		t.Fatal("deadline exhaustion failed over (it must not: less budget elsewhere)")
	}
	if view := rt.View(); view.Healthy != 3 {
		t.Fatalf("deadline exhaustion cost ring membership: %+v", view)
	}
}

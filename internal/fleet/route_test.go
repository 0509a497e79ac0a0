package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// groupByOwnerRef is the map-and-append split groupByOwner replaced, kept as
// its oracle: hash and look up under the lock, one growing index and row
// slice per owner, groups in order of first appearance.
func (rt *Router) groupByOwnerRef(system string, rows [][]float64) ([]ownerGroup, uint64, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	epoch := rt.epoch.Load()
	if rt.ring.Size() == 0 {
		return nil, epoch, &BackendError{Status: http.StatusServiceUnavailable, Msg: "no healthy replicas"}
	}
	byOwner := make(map[string]*ownerGroup)
	var order []string
	for i, row := range rows {
		owner := rt.ring.Owner(serve.HashKey(system, 0, row))
		g, ok := byOwner[owner]
		if !ok {
			g = &ownerGroup{owner: owner}
			byOwner[owner] = g
			order = append(order, owner)
		}
		g.indices = append(g.indices, i)
		g.rows = append(g.rows, row)
	}
	var groups []ownerGroup
	for _, owner := range order {
		groups = append(groups, *byOwner[owner])
	}
	return groups, epoch, nil
}

// TestGroupByOwnerMatchesReference: the two-pass scratch split yields the
// oracle's owners, group order, indices and row headers for every batch size
// and ring size, from a scratch reused across all of them; an empty ring is
// still a 503.
func TestGroupByOwnerMatchesReference(t *testing.T) {
	sc := new(routeScratch)
	for _, members := range []int{0, 1, 3, 7} {
		reps := make([]Predictor, members)
		for i := range reps {
			reps[i] = newStub(fmt.Sprintf("r%d", i))
		}
		rt := newTestRouter(t, RouterConfig{}, reps...)
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for n := 1; n <= 64; n++ {
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = []float64{rng.Float64(), rng.NormFloat64(), float64(rng.Intn(4))}
				}
				want, wantEpoch, wantErr := rt.groupByOwnerRef("theta", rows)
				errsBefore := rt.metrics.errors.Load()
				got, epoch, err := rt.groupByOwner(sc, "theta", rows)
				if members == 0 {
					be, ok := err.(*BackendError)
					if !ok || be.Status != http.StatusServiceUnavailable || wantErr == nil || be.Error() != wantErr.Error() {
						t.Fatalf("empty ring: err %v, want %v", err, wantErr)
					}
					if rt.metrics.errors.Load() != errsBefore+1 {
						t.Fatal("empty ring: the refusal was not counted")
					}
					continue
				}
				if err != nil || wantErr != nil || epoch != wantEpoch || len(got) != len(want) {
					t.Fatalf("%d members, %d rows: %d groups (%v) epoch %d, oracle %d groups (%v) epoch %d",
						members, n, len(got), err, epoch, len(want), wantErr, wantEpoch)
				}
				for g := range want {
					if got[g].owner != want[g].owner || len(got[g].indices) != len(want[g].indices) || len(got[g].rows) != len(want[g].rows) {
						t.Fatalf("%d members, %d rows, group %d: owner %q with %d indices and %d rows, oracle %q with %d and %d", members, n, g,
							got[g].owner, len(got[g].indices), len(got[g].rows), want[g].owner, len(want[g].indices), len(want[g].rows))
					}
					for k, idx := range want[g].indices {
						if got[g].indices[k] != idx || &got[g].rows[k][0] != &rows[idx][0] || len(got[g].rows[k]) != len(rows[idx]) {
							t.Fatalf("%d members, %d rows, group %d slot %d: index %d, oracle %d, or not that row's header",
								members, n, g, k, got[g].indices[k], idx)
						}
					}
				}
			}
		}
	}
}

// cannedReplica answers every sub-request from responses built up front, so
// a Route over it allocates only what the router allocates.
type cannedReplica struct {
	name  string
	resps []*serve.PredictResponse // by row count
}

func newCanned(name string, maxRows int) *cannedReplica {
	c := &cannedReplica{name: name, resps: make([]*serve.PredictResponse, maxRows+1)}
	for n := range c.resps {
		c.resps[n] = &serve.PredictResponse{System: "theta", Version: 1, Count: n, Predictions: make([]serve.PredictionResult, n)}
	}
	return c
}

func (c *cannedReplica) Name() string { return c.name }
func (c *cannedReplica) Predict(_ context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	canned := c.resps[len(req.Rows)]
	*out = serve.PredictResponse{System: canned.System, Version: canned.Version, Count: canned.Count,
		Predictions: append(out.Predictions[:0], canned.Predictions...)}
	return nil
}
func (c *cannedReplica) Health(context.Context) error                      { return nil }
func (c *cannedReplica) Metrics(context.Context) ([]obs.PromFamily, error) { return nil, nil }
func (c *cannedReplica) FetchTrace(context.Context, uint64) (*obs.TraceDetail, error) {
	return nil, ErrTraceNotFound
}

// TestRouteAllocs pins what routing one 16-row request over three replicas
// allocates, the replicas' own work excluded.
func TestRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rt := newTestRouter(t, RouterConfig{}, newCanned("r0", 16), newCanned("r1", 16), newCanned("r2", 16))
	req := &serve.PredictRequest{System: "theta", Rows: testRows(16)}
	ctx := context.Background()
	route := func() {
		resp, err := rt.Route(ctx, req)
		if err != nil || len(resp.Replicas) != 3 {
			t.Fatalf("route: %v, %d shares, want 3", err, len(resp.Replicas))
		}
	}
	route()
	// The response, its predictions, its shares and its trace ID; a closure
	// for each of the two groups that do not run on the caller's goroutine.
	// The trace parent rides each sub-request, which is route scratch.
	const want = 6
	if got := testing.AllocsPerRun(200, route); got != want {
		t.Fatalf("Route allocates %.0f times a 16-row request over three replicas, want %d", got, want)
	}
}

// statusWriter is a ResponseWriter that keeps its header map and the status,
// and drops the body.
type statusWriter struct {
	h      http.Header
	status int
}

func (w *statusWriter) Header() http.Header         { return w.h }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *statusWriter) WriteHeader(status int)      { w.status = status }

// TestRoutedPredictAllocs pins what one warm 16-row request costs the
// router's whole predict path: NewHandler's envelope, routing, and three
// in-process replicas serving their groups from cache, the reply written into
// a writer that drops it.
func TestRoutedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	dir, pool := e2eFixture(t)
	var reps []Predictor
	for i := range 3 {
		reg, err := serve.LoadRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := serve.NewService(reg, serve.Options{CacheSize: 1 << 12})
		t.Cleanup(svc.Close)
		reps = append(reps, NewLocal(fmt.Sprintf("r%d", i), svc, nil))
	}
	h := NewHandler(newTestRouter(t, RouterConfig{}, reps...), HandlerConfig{})
	body, err := json.Marshal(serve.PredictRequest{System: "theta", Rows: pool[:16]})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	var first Response
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil || rec.Code != http.StatusOK || len(first.Replicas) != 3 {
		t.Fatalf("status %d, %d shares (%v): want a 200 over three replicas: %s", rec.Code, len(first.Replicas), err, rec.Body.Bytes())
	}
	w := &statusWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	rd := bytes.NewReader(nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	routed := func() {
		rd.Reset(body)
		w.status = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	routed()
	// The routed reply's trace ID, a closure for each of the two groups that
	// do not run on the caller's goroutine, and the Content-Length digits.
	// The replicas serve into the route scratch and allocate nothing; the
	// routed reply, its blocks, its X-Trace-Id header value and the call are
	// pooled, and the trace parent rides each sub-request.
	const want = 4
	if got := testing.AllocsPerRun(200, routed); got != want {
		t.Fatalf("a warm routed 16-row request allocates %.0f times, want %d", got, want)
	}
}

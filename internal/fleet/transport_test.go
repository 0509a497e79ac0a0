package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// The hop's transport: who owns the replica connections, how many are
// dialled, when they end, and whose fault a hop that outlives its bound is.

// connTracker is a server's ConnState hook: how many connections it accepted
// and how many of them are still open.
type connTracker struct {
	mu           sync.Mutex
	opened, open int
	// drained gets a value when open falls to zero. One slot: it wakes a
	// waiter, which reads open for itself; it does not count.
	drained chan struct{}
}

func (c *connTracker) hook(_ net.Conn, st http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch st {
	case http.StateNew:
		c.opened++
		c.open++
	case http.StateClosed:
		if c.open--; c.open == 0 {
			select {
			case c.drained <- struct{}{}:
			default:
			}
		}
	}
}

func (c *connTracker) counts() (opened, open int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened, c.open
}

// waitClosed returns once the server has seen every connection it accepted
// closed.
func (c *connTracker) waitClosed(t *testing.T, when string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		if _, open := c.counts(); open == 0 {
			return
		}
		select {
		case <-c.drained:
		case <-timeout:
			_, open := c.counts()
			t.Fatalf("%s: %d replica connections still open", when, open)
		}
	}
}

// answerEmptyPredictions answers the predict request in body as a replica
// would, with one empty prediction a row.
func answerEmptyPredictions(w http.ResponseWriter, body []byte) {
	var req serve.PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := &serve.PredictResponse{System: req.System, Version: 1, Count: len(req.Rows), Predictions: make([]serve.PredictionResult, len(req.Rows))}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// newTrackedReplica starts a replica that answers every predict with one
// empty prediction a row and tracks its connections.
func newTrackedReplica(t *testing.T) (*httptest.Server, *connTracker) {
	t.Helper()
	tracker := &connTracker{drained: make(chan struct{}, 1)}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		answerEmptyPredictions(w, body)
	}))
	ts.Config.ConnState = tracker.hook
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, tracker
}

// distinctRows is a request of n rows that differ, so that a ring spreads them.
func distinctRows(n int) *serve.PredictRequest {
	req := &serve.PredictRequest{System: "theta", Rows: make([][]float64, n)}
	for i := range req.Rows {
		req.Rows[i] = []float64{float64(i), 3}
	}
	return req
}

// TestRemoteReusesConnectionsUnderFanIn: a zero-config Remote keeps a
// connection for every concurrent hop instead of re-dialling past the default
// transport's two idle ones a host (thousands of dials for these 6 400 hops).
// A hop that finds the pool empty while another is about to hand its
// connection back dials one too many, hence twice the callers and not once.
func TestRemoteReusesConnectionsUnderFanIn(t *testing.T) {
	const callers, hops = 32, 200
	ts, tracker := newTrackedReplica(t)
	rem := NewRemote("r0", ts.URL, RemoteConfig{})
	defer rem.CloseIdleConnections()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := distinctRows(4)
			for i := 0; i < hops; i++ {
				if resp, err := rem.Predict(context.Background(), req); err != nil || resp.Count != 4 {
					t.Errorf("hop %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	opened, _ := tracker.counts()
	dialled, reused := rem.dialled.Load(), rem.reused.Load()
	t.Logf("%d hops at %d callers: the replica accepted %d connections; hops were handed %d dialled, %d reused", callers*hops, callers, opened, dialled, reused)
	if opened > 2*callers {
		t.Errorf("the replica accepted %d connections for %d hops at %d callers, want at most %d", opened, callers*hops, callers, 2*callers)
	}
	if dialled+reused != callers*hops || dialled > uint64(opened) {
		t.Errorf("hops were handed %d dialled + %d reused connections, want %d in all and at most the %d accepted dialled", dialled, reused, callers*hops, opened)
	}
}

// TestRemoteClosesIdleOnStop: replica connections end with their owner's
// place in the fleet — a member's when it is deregistered, everyone's when the
// router stops — and the router's metrics say how many there were.
func TestRemoteClosesIdleOnStop(t *testing.T) {
	const routes = 5
	var trackers [2]*connTracker
	var backends []Predictor
	for i := range trackers {
		var ts *httptest.Server
		ts, trackers[i] = newTrackedReplica(t)
		backends = append(backends, NewRemote(fmt.Sprintf("r%d", i), ts.URL, RemoteConfig{}))
	}
	rt := newTestRouter(t, RouterConfig{}, backends...)
	for i := 0; i < routes; i++ {
		if resp, err := rt.Route(context.Background(), distinctRows(64)); err != nil || len(resp.Replicas) != 2 {
			t.Fatalf("route %d: %v, %+v", i, err, resp)
		}
	}
	// One request at a time, one hop a replica in each: a connection each.
	var metrics bytes.Buffer
	if err := obs.WriteFamilies(&metrics, rt.collectConns(nil)); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trackers {
		if opened, open := tr.counts(); opened != 1 || open != 1 {
			t.Fatalf("r%d accepted %d connections, %d open, want 1 and 1", i, opened, open)
		}
		for reused, n := range map[string]int{"false": 1, "true": routes - 1} {
			want := fmt.Sprintf("iorouter_replica_connections_total{replica=\"r%d\",reused=%q} %d\n", i, reused, n)
			if !bytes.Contains(metrics.Bytes(), []byte(want)) {
				t.Errorf("metrics lack %q:\n%s", want, &metrics)
			}
		}
	}

	if _, err := rt.Deregister(context.Background(), "r0"); err != nil {
		t.Fatal(err)
	}
	trackers[0].waitClosed(t, "after Deregister(r0)")
	if _, open := trackers[1].counts(); open != 1 {
		t.Fatalf("deregistering r0 left r1 %d open connections, want 1", open)
	}
	rt.Stop()
	trackers[1].waitClosed(t, "after Stop")
}

// TestRemoteDoesNotFollowRedirects: a hop is one round trip to the replica it
// was addressed to. A redirect is that replica's answer, and not a 200.
func TestRemoteDoesNotFollowRedirects(t *testing.T) {
	var elsewhere atomic.Int32
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
	}))
	defer other.Close()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Redirect(w, r, other.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer ts.Close()
	rem := NewRemote("r0", ts.URL, RemoteConfig{})
	defer rem.CloseIdleConnections()
	_, err := rem.Predict(context.Background(), distinctRows(2))
	if be, ok := err.(*BackendError); !ok || be.Status != http.StatusTemporaryRedirect {
		t.Errorf("predict: %v, want the replica's 307", err)
	}
	if err := rem.Health(context.Background()); err == nil {
		t.Error("health: a redirect passed for a healthy replica")
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the redirect's target saw %d requests, want 0", n)
	}
}

// TestRemoteSendsBaseURLCredentials: userinfo in the base URL still reaches
// the replica as basic auth, which http.Client derived and a bare transport
// does not.
func TestRemoteSendsBaseURLCredentials(t *testing.T) {
	var user, pass atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, p, _ := r.BasicAuth()
		user.Store(u)
		pass.Store(p)
	}))
	defer ts.Close()
	rem := NewRemote("r0", "http://fleet:s3cret@"+ts.Listener.Addr().String(), RemoteConfig{})
	defer rem.CloseIdleConnections()
	if err := rem.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if user.Load() != "fleet" || pass.Load() != "s3cret" {
		t.Errorf("the replica saw basic auth %q:%q, want fleet:s3cret", user.Load(), pass.Load())
	}
}

// TestHungReplicaIsAReplicaFault: a hop that ends on its own bound while the
// caller's context is live failed because the replica hung, before its headers
// or in the middle of its body — a breaker failure and a failover, as for any
// fault. Only the caller's own deadline running out is a 504 that costs the
// replica nothing.
func TestHungReplicaIsAReplicaFault(t *testing.T) {
	stalls := map[string]func(http.ResponseWriter){
		"before the headers": func(http.ResponseWriter) {},
		"mid-body": func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "4096")
			io.WriteString(w, `{"system":"theta","predictions":[`)
			w.(http.Flusher).Flush()
		},
	}
	for name, stall := range stalls {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				stall(w)
				<-release
			}))
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(release) }) // first: Close waits for the handlers
			hung := NewRemote("hung", ts.URL, RemoteConfig{})
			rt := newTestRouter(t, RouterConfig{}, hung, newStub("spare"))
			req := &serve.PredictRequest{System: "theta"}
			for i := 0; req.Row == nil; i++ {
				if row := []float64{float64(i), 3}; rt.ring.Owner(serve.HashKey("theta", 0, row)) == "hung" {
					req.Row = row
				}
			}
			state := func() (failovers, failures uint64) {
				return rt.metrics.failovers.Load(), rt.replicas["hung"].breaker.Status().Failures
			}

			hung.hopBound = 50 * time.Millisecond
			resp, err := rt.Route(context.Background(), req)
			if err != nil || len(resp.Replicas) != 1 || resp.Replicas[0].Replica != "spare" {
				t.Fatalf("a deadline-free request to a hung replica: %v, %+v; want it served by the spare", err, resp)
			}
			if failovers, failures := state(); failovers != 1 || failures != 1 {
				t.Fatalf("%d failovers, %d breaker failures, want 1 and 1", failovers, failures)
			}

			hung.hopBound = hopTimeout
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err = rt.Route(ctx, req)
			if be, ok := err.(*BackendError); !ok || be.Status != http.StatusGatewayTimeout {
				t.Fatalf("the client's own deadline: %v, want a 504", err)
			}
			if failovers, failures := state(); failovers != 1 || failures != 1 {
				t.Fatalf("the client's own deadline cost the replica: %d failovers, %d breaker failures, want 1 and 1 still", failovers, failures)
			}
		})
	}
}

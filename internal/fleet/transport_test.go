package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
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
		c.closed()
	}
}

// hijackedClosed counts a hop connection closed: net/http tracks a
// connection no further once it is hijacked.
func (c *connTracker) hijackedClosed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed()
}

func (c *connTracker) closed() {
	if c.open--; c.open == 0 {
		select {
		case c.drained <- struct{}{}:
		default:
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

// hopReplica adapts h, a handler of POST /v1/predict and of the GETs, into a
// replica that answers predicts on the hop, as serve's handler does. Each
// request frame is handed to h as a POST of its body, with the frame's budget
// and trace parent as X-Request-Timeout-Ms and X-Trace-Id, and h's answer goes
// back as the reply frame: once h returns, or at once when h flushes, with
// the body length h declared as its Content-Length. A reply whose body is not
// that length, or whose header says Connection: close, closes the connection
// once the request's body is read. ended, when non-nil, runs as a hop
// connection ends.
func hopReplica(h http.HandlerFunc, ended func()) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != serve.HopPath {
			h(w, r)
			return
		}
		nc, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if ended != nil {
			defer ended()
		}
		defer nc.Close()
		io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+serve.HopProtocol+"\r\n\r\n")
		for {
			var head [serve.HopRequestHead]byte
			if _, err := io.ReadFull(rw, head[:]); err != nil {
				return
			}
			n, budgetMs, parent := serve.ParseHopRequest(head[:])
			body := &io.LimitedReader{R: rw, N: int64(n)}
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", body)
			req.ContentLength, req.TLS, req.ProtoMajor, req.ProtoMinor = int64(n), r.TLS, r.ProtoMajor, r.ProtoMinor
			if budgetMs > 0 {
				req.Header.Set(serve.DeadlineHeader, strconv.FormatUint(uint64(budgetMs), 10))
			}
			if parent != 0 {
				req.Header.Set(serve.TraceHeader, obs.FormatTraceID(parent))
			}
			fw := &frameWriter{conn: nc, header: http.Header{}}
			h(fw, req)
			fw.Flush()
			if _, err := io.Copy(io.Discard, body); err != nil || fw.wrote != fw.length || fw.header.Get("Connection") == "close" {
				return
			}
		}
	}
}

// frameWriter is the ResponseWriter hopReplica hands a frame's handler.
type frameWriter struct {
	conn   net.Conn
	header http.Header
	status int
	body   bytes.Buffer
	sent   bool // the head is out, and with it what body was written
	// length is the body length the head declares, wrote what went out.
	length, wrote int
}

func (f *frameWriter) Header() http.Header { return f.header }

func (f *frameWriter) WriteHeader(code int) {
	if f.status == 0 {
		f.status = code
	}
}

func (f *frameWriter) Write(p []byte) (int, error) {
	f.WriteHeader(http.StatusOK)
	if !f.sent {
		return f.body.Write(p)
	}
	f.wrote += len(p)
	return f.conn.Write(p)
}

// Flush sends the head, and the body written so far, unless it is out.
func (f *frameWriter) Flush() {
	if f.sent {
		return
	}
	f.WriteHeader(http.StatusOK)
	f.sent, f.length, f.wrote = true, f.body.Len(), f.body.Len()
	if cl := f.header.Get("Content-Length"); cl != "" {
		f.length, _ = strconv.Atoi(cl)
	}
	retryAfter, _ := strconv.Atoi(f.header.Get("Retry-After"))
	head := make([]byte, serve.HopReplyHead)
	serve.PutHopReply(head, f.status, uint32(retryAfter), uint32(f.length))
	f.conn.Write(append(head, f.body.Bytes()...))
}

// newTrackedReplica starts a replica that answers every predict with one
// empty prediction a row and tracks its connections, the hop's among them.
func newTrackedReplica(t *testing.T) (*httptest.Server, *connTracker) {
	t.Helper()
	tracker := &connTracker{drained: make(chan struct{}, 1)}
	ts := httptest.NewUnstartedServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		answerEmptyPredictions(w, body)
	}, tracker.hijackedClosed))
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
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := distinctRows(4)
			for i := 0; i < hops; i++ {
				if resp, err := predict(context.Background(), rem, req); err != nil || resp.Count != 4 {
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
	if err := obs.WriteFamilies(&metrics, rt.collect(nil)); err != nil {
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

// TestRemoteDoesNotFollowRedirects: a call is one round trip to the replica it
// was addressed to. A redirect is that replica's answer, and not a 200; to
// the hop upgrade, it is a refusal.
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
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	if _, err := predict(context.Background(), rem, distinctRows(2)); err == nil || !strings.Contains(err.Error(), "307") {
		t.Errorf("predict: %v, want the replica's 307 as a refused upgrade", err)
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
	rem := newTestRemote(t, "r0", "http://fleet:s3cret@"+ts.Listener.Addr().String(), RemoteConfig{})
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
			ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
				stall(w)
				<-release
			}, nil))
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(release) }) // first: Close waits for the handlers
			hung := newTestRemote(t, "hung", ts.URL, RemoteConfig{})
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

// idleConns is how many predict connections rem has pooled.
func idleConns(rem *Remote) int {
	rem.hops.mu.Lock()
	defer rem.hops.mu.Unlock()
	return len(rem.hops.idle)
}

// ownedRow is a one-row request that the ring of rt sends to name.
func ownedRow(rt *Router, name string) *serve.PredictRequest {
	req := &serve.PredictRequest{System: "theta"}
	for i := 0; req.Row == nil; i++ {
		if row := []float64{float64(i), 3}; rt.ring.Owner(serve.HashKey("theta", 0, row)) == name {
			req.Row = row
		}
	}
	return req
}

// TestRemoteOverTLS: an https:// replica is reached over TLS, verified
// against the roots the Remote trusts, with HTTP/1.1 negotiated, and its
// connections are pooled as plain ones are.
func TestRemoteOverTLS(t *testing.T) {
	var plain atomic.Int32
	ts := httptest.NewTLSServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		if r.TLS == nil || r.TLS.NegotiatedProtocol != "http/1.1" || r.ProtoMajor != 1 {
			plain.Add(1)
		}
		if body, _ := io.ReadAll(r.Body); r.URL.Path == "/v1/predict" {
			answerEmptyPredictions(w, body)
		}
	}, nil))
	defer ts.Close()
	untrusted := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	if _, err := predict(context.Background(), untrusted, distinctRows(2)); err == nil {
		t.Fatal("a replica whose certificate no trusted root signed was reached")
	}
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	rem.tlsConf.RootCAs = ts.Client().Transport.(*http.Transport).TLSClientConfig.RootCAs
	for i := 0; i < 3; i++ {
		if resp, err := predict(context.Background(), rem, distinctRows(2)); err != nil || resp.Count != 2 {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	if err := rem.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := plain.Load(); n != 0 {
		t.Errorf("%d requests arrived without TLS and HTTP/1.1", n)
	}
	if d, r := rem.dialled.Load(), rem.reused.Load(); d != 1 || r != 2 {
		t.Errorf("hops were handed %d dialled and %d reused connections, want 1 and 2", d, r)
	}
}

// TestRemoteCallerCancelEndsTheHop: a caller that gives up ends its hop on a
// hung replica at once, not at the hop's bound, with context.Canceled; and
// through the router that is the client's doing, not a replica fault.
func TestRemoteCallerCancelEndsTheHop(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}, nil))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // first: Close waits for the handlers
	hung := newTestRemote(t, "hung", ts.URL, RemoteConfig{})
	rt := newTestRouter(t, RouterConfig{}, hung, newStub("spare"))
	req := ownedRow(rt, "hung")
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-entered
			cancel()
		}()
		return ctx
	}

	start := time.Now()
	_, err := predict(cancelled(), hung, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled hop: %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > hung.hopBound/2 {
		t.Fatalf("a cancelled hop took %v, want well inside the hop's %v bound", took, hung.hopBound)
	}
	if _, err := rt.Route(cancelled(), req); err == nil {
		t.Fatal("a cancelled request was answered")
	}
	if failovers, failures := rt.metrics.failovers.Load(), rt.replicas["hung"].breaker.Status().Failures; failovers != 0 || failures != 0 {
		t.Errorf("the client's cancel cost the replica %d failovers and %d breaker failures, want 0 and 0", failovers, failures)
	}
}

// TestRemoteShedBeforeTheBodyIsA429: a replica that answers 429 before it
// has read a 4 MB frame, and then closes, has its answer stand while the
// hop's write is still going; it is a shed, not a fault.
func TestRemoteShedBeforeTheBodyIsA429(t *testing.T) {
	ts := httptest.NewServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Connection", "close")
		serve.WriteError(w, http.StatusTooManyRequests, "overloaded (test): retry later")
	}, nil))
	defer ts.Close()
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	req := selfDescribing(4444, 1024, 800) // 5 bytes a value
	_, err := predict(context.Background(), rem, req)
	if be, ok := err.(*BackendError); !ok || be.Status != http.StatusTooManyRequests || be.RetryAfter != "1" {
		t.Fatalf("%v, want the replica's 429", err)
	}
}

// TestRemoteNeverPoolsAnUnfinishedConn: a connection is pooled only when its
// reply frame was read to the end and nothing followed it; one whose upgrade
// the replica refused, saying it would close, is never pooled.
func TestRemoteNeverPoolsAnUnfinishedConn(t *testing.T) {
	// frames is a replica that answers each request frame with reply.
	frames := func(reply func(http.ResponseWriter, []byte)) func(func()) http.HandlerFunc {
		return func(ended func()) http.HandlerFunc {
			return hopReplica(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				reply(w, body)
			}, ended)
		}
	}
	replicas := map[string]func(ended func()) http.HandlerFunc{
		// As a closing Service answers the upgrade.
		"Connection: close": func(func()) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "close")
				serve.WriteError(w, http.StatusServiceUnavailable, "closing (test)")
			}
		},
		"bytes after the reply": frames(func(w http.ResponseWriter, body []byte) {
			w.Header().Set("Content-Length", "10")
			io.WriteString(w, oneRowReply)
		}),
		"short body": frames(func(w http.ResponseWriter, body []byte) {
			w.Header().Set("Content-Length", "4096")
			io.WriteString(w, `{"system":"theta","predictions":[`)
		}),
	}
	for name, replica := range replicas {
		t.Run(name, func(t *testing.T) {
			tracker := &connTracker{drained: make(chan struct{}, 1)}
			ts := httptest.NewUnstartedServer(replica(tracker.hijackedClosed))
			ts.Config.ConnState = tracker.hook
			ts.Start()
			defer ts.Close()
			rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
			for i := 0; i < 2; i++ {
				predict(context.Background(), rem, distinctRows(2))
			}
			if n := idleConns(rem); n != 0 {
				t.Errorf("%d connections pooled, want 0", n)
			}
			if opened, _ := tracker.counts(); opened != 2 {
				t.Errorf("two hops dialled %d connections, want 2", opened)
			}
			tracker.waitClosed(t, "after the hops")
		})
	}
}

// TestRemoteClosesIdleConnsPastTheirBound: a pooled connection that waits
// out the idle bound is closed, and the next hop dials.
func TestRemoteClosesIdleConnsPastTheirBound(t *testing.T) {
	ts, tracker := newTrackedReplica(t)
	rem := NewRemote("r0", ts.URL, RemoteConfig{})
	rem.idleBound = 20 * time.Millisecond
	for i := 0; i < 2; i++ {
		if _, err := predict(context.Background(), rem, distinctRows(2)); err != nil {
			t.Fatal(err)
		}
		tracker.waitClosed(t, "past the idle bound")
		if n := idleConns(rem); n != 0 {
			t.Fatalf("%d connections still pooled past the idle bound", n)
		}
	}
	if opened, _ := tracker.counts(); opened != 2 || rem.dialled.Load() != 2 {
		t.Errorf("the replica accepted %d connections and hops dialled %d, want 2 and 2", opened, rem.dialled.Load())
	}
}

// rawReplica is a TCP replica that reads one call a connection — an HTTP
// request, and after a hop upgrade the request frame that follows it —
// records its bytes, writes reply as its whole answer and resets the
// connection.
type rawReplica struct {
	lis   net.Listener
	reply atomic.Pointer[[]byte]
	// got receives each call's bytes once the replica has closed its side.
	got chan []byte
	// keepAlive, read as a connection is accepted, has the replica answer
	// the hop upgrade with a 101 and then every frame on it with reply until
	// the caller closes it, recording nothing: serveAll.
	keepAlive atomic.Bool
}

func newRawReplica(t testing.TB) *rawReplica {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawReplica{lis: lis, got: make(chan []byte, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			if s.keepAlive.Load() {
				s.serveAll(c)
				continue
			}
			var seen bytes.Buffer
			br := bufio.NewReader(io.TeeReader(c, &seen))
			if req, err := http.ReadRequest(br); err == nil {
				io.Copy(io.Discard, req.Body)
				if strings.HasSuffix(req.URL.Path, serve.HopPath) {
					readFrame(br)
				}
			}
			c.Write(*s.reply.Load())
			c.(*net.TCPConn).SetLinger(0) // a reset, not TIME_WAIT: a fuzz run dials ~10⁵ times
			c.Close()
			s.got <- seen.Bytes()
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	return s
}

// readFrame reads one request frame off br and returns its body length.
func readFrame(br *bufio.Reader) (int, error) {
	head, err := br.Peek(serve.HopRequestHead)
	if err != nil {
		return 0, err
	}
	n, _, _ := serve.ParseHopRequest(head)
	_, err = br.Discard(serve.HopRequestHead + int(n))
	return int(n), err
}

// switching is a replica's 101 to the hop upgrade.
const switching = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + serve.HopProtocol + "\r\n\r\n"

// serveAll answers the upgrade on c, then each frame with reply until c
// ends, and allocates nothing once c's reader is made. Each frame read sends
// nil on got if it has room.
func (s *rawReplica) serveAll(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		if len(line) <= 2 {
			break
		}
	}
	if _, err := io.WriteString(c, switching); err != nil {
		return
	}
	for {
		if _, err := readFrame(br); err != nil {
			return
		}
		select {
		case s.got <- nil:
		default:
		}
		if _, err := c.Write(*s.reply.Load()); err != nil {
			return
		}
	}
}

// TestRemoteWritesWhatNetHTTPWrote: every GET is, byte for byte, what
// net/http's client writes for it with an empty User-Agent, which it leaves
// out, and so is the upgrade that opens a hop connection; the frame after it
// is AppendHopRequest's, with the remaining budget and the TraceParent in its
// head.
func TestRemoteWritesWhatNetHTTPWrote(t *testing.T) {
	stub := newRawReplica(t)
	ok := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
	stub.reply.Store(&ok)
	addr := stub.lis.Addr().String()
	rem := newTestRemote(t, "r0", "http://fleet:s3cret@"+addr+"/base", RemoteConfig{AdminToken: "t0k"})
	req := distinctRows(3)
	traced := *req
	traced.TraceParent = 0xab
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	upgrade := http.Header{"Connection": {"Upgrade"}, "Upgrade": {serve.HopProtocol}}
	calls := []struct {
		call   func()
		path   string
		header http.Header
		frame  *serve.PredictRequest
	}{
		{func() { predict(ctx, rem, &traced) }, serve.HopPath, upgrade, &traced},
		{func() { predict(context.Background(), rem, req) }, serve.HopPath, upgrade, req},
		{func() { rem.Health(ctx) }, "/healthz", http.Header{}, nil},
		{func() { rem.FetchTrace(ctx, 0xcd) }, "/v1/trace/00000000000000cd", http.Header{"X-Admin-Token": {"t0k"}}, nil},
	}
	for _, c := range calls {
		c.call()
		got := <-stub.got
		var want bytes.Buffer
		wreq, err := http.NewRequest(http.MethodGet, "http://"+addr+"/base"+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		wreq.Header = c.header
		wreq.Header.Set("User-Agent", "")
		wreq.SetBasicAuth("fleet", "s3cret")
		if err := wreq.Write(&want); err != nil {
			t.Fatal(err)
		}
		if c.frame != nil {
			var budgetMs uint32
			if frame, ok := bytes.CutPrefix(got, want.Bytes()); ok && len(frame) >= serve.HopRequestHead {
				_, budgetMs, _ = serve.ParseHopRequest(frame) // a clock reading
			}
			if _, deadline := ctx.Deadline(); c.frame == req && budgetMs != 0 || c.frame == &traced && !(deadline && budgetMs > 0) {
				t.Errorf("%s sent a budget of %d ms", c.path, budgetMs)
			}
			frame, err := serve.AppendHopRequest(nil, c.frame, budgetMs)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(frame)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s sent\n%q\nwant\n%q", c.path, got, want.Bytes())
		}
	}
}

// oneRowReply is a replica's answer to distinctRows(1).
const oneRowReply = `{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}]}`

// TestRemoteReadsFramedReplies: a GET's chunked body is read whole, as
// net/http's client did. An informational answer ahead of the reply, which a
// call never asks for (it sends no Expect) and ioserve never sends, is an
// error.
func TestRemoteReadsFramedReplies(t *testing.T) {
	stub := newRawReplica(t)
	const ok = `{"status":"ok"}`
	for name, reply := range map[string]string{
		"1xx first": fmt.Sprintf("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(ok), ok),
		"chunked":   fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", ok[:9], len(ok)-9, ok[9:]),
	} {
		b := []byte(reply)
		stub.reply.Store(&b)
		rem := newTestRemote(t, "r0", "http://"+stub.lis.Addr().String(), RemoteConfig{})
		body, err := rem.get(context.Background(), "/healthz", false, 4<<10)
		<-stub.got
		switch {
		case name == "1xx first" && (err == nil || !strings.Contains(err.Error(), `status "100 Continue"`)):
			t.Errorf("%s: %v, %q; want an error naming the status", name, err, body)
		case name == "chunked" && (err != nil || string(body) != ok):
			t.Errorf("%s: %v, %q; want the whole body", name, err, body)
		}
	}
}

// frameOf is body as a replica's reply frame, after the 101 that opens the
// connection when upgraded is unset.
func frameOf(status int, retryAfter uint32, body string, upgraded bool) []byte {
	var b []byte
	if !upgraded {
		b = []byte(switching)
	}
	head := make([]byte, serve.HopReplyHead)
	serve.PutHopReply(head, status, retryAfter, uint32(len(body)))
	return append(append(b, head...), body...)
}

// FuzzRemoteReply: whatever a replica answers a hop connection's first call,
// the hop returns either a decoded reply or an error, never panics, and never
// pools a connection that has bytes left to read.
func FuzzRemoteReply(f *testing.F) {
	const ok = oneRowReply
	f.Add(frameOf(http.StatusOK, 0, ok, false))
	f.Add(frameOf(http.StatusOK, 0, ok[:len(ok)-9], false))
	f.Add(append(frameOf(http.StatusOK, 0, ok, false), "more"...))
	f.Add(frameOf(http.StatusTooManyRequests, 1, `{"error":"x"}`, false))
	f.Add(frameOf(99, 0, "", false))
	f.Add([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	stub := newRawReplica(f)
	f.Fuzz(func(t *testing.T, reply []byte) {
		stub.reply.Store(&reply)
		rem := newTestRemote(t, "r0", "http://"+stub.lis.Addr().String(), RemoteConfig{})
		resp, err := predict(context.Background(), rem, distinctRows(1))
		if (resp == nil) == (err == nil) {
			t.Fatalf("a hop returned %v and %v", resp, err)
		}
		if rem.dialled.Load() == 0 {
			return // the replica was never reached
		}
		<-stub.got // the replica has closed: what a pooled connection holds is all it will get
		rem.hops.mu.Lock()
		idle := slices.Clone(rem.hops.idle)
		rem.hops.mu.Unlock()
		for _, c := range idle {
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if n, err := c.br.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Fatalf("a pooled connection had more to read: %d bytes, %v", n, err)
			}
		}
	})
}

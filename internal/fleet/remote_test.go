package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/serve"
	"iotaxo/internal/uq"
)

// newTestRemote is NewRemote with its pooled connections, and the cancel
// watcher each one parks, closed when the test ends.
func newTestRemote(t testing.TB, name, base string, cfg RemoteConfig) *Remote {
	rem := NewRemote(name, base, cfg)
	t.Cleanup(rem.CloseIdleConnections)
	return rem
}

// selfDescribing is the predict request whose every value is k (four digits),
// so that any stretch of its encoding says which request it belongs to.
func selfDescribing(k, rows, width int) *serve.PredictRequest {
	row := make([]float64, width)
	for i := range row {
		row[i] = float64(k)
	}
	req := &serve.PredictRequest{System: "theta", Rows: make([][]float64, rows)}
	for i := range req.Rows {
		req.Rows[i] = row
	}
	return req
}

// checkSelfDescribing reports the first value of data that differs from the
// one before it: bytes read from a buffer that was being re-encoded. With cut
// set, data is a piece of a body, whose first and last value may be partial.
func checkSelfDescribing(data []byte, cut bool) error {
	var first []byte
	for i := 0; i < len(data); {
		if data[i] < '0' || data[i] > '9' {
			i++
			continue
		}
		j := i
		for j < len(data) && data[j] >= '0' && data[j] <= '9' {
			j++
		}
		switch run := data[i:j]; {
		case cut && (i == 0 || j == len(data)):
		case first == nil:
			first = run
		case !bytes.Equal(run, first):
			return fmt.Errorf("value %q at byte %d of %d, after %qs", run, i, len(data), first)
		}
		i = j
	}
	if first == nil && !cut {
		return errors.New("body holds no value")
	}
	return nil
}

// errorLog collects what the goroutines of a stub found wrong.
type errorLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *errorLog) add(err error) {
	if err != nil {
		l.mu.Lock()
		l.errs = append(l.errs, err)
		l.mu.Unlock()
	}
}

func (l *errorLog) all() []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errs
}

// earlyShedder is a raw-TCP replica that sheds the moment it has the hop
// upgrade: 101 and a 429 frame before it reads the request frame. Only then
// does it read the frame's body, a few hundred bytes at a time, checking it
// as far as it arrives, and close the connection.
type earlyShedder struct {
	lis    net.Listener
	conns  sync.WaitGroup
	bodies atomic.Int64
	errorLog
}

func newEarlyShedder(t *testing.T) *earlyShedder {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &earlyShedder{lis: lis}
	s.conns.Add(1)
	go func() {
		defer s.conns.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go s.serve(c)
		}
	}()
	return s
}

func (s *earlyShedder) serve(c net.Conn) {
	defer s.conns.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := http.ReadRequest(br); err != nil {
		s.add(fmt.Errorf("reading the upgrade: %w", err))
		return
	}
	if _, err := c.Write(frameOf(http.StatusTooManyRequests, 1, `{"error":"overloaded (test): retry later"}`, false)); err != nil {
		return
	}
	var head [serve.HopRequestHead]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		s.add(fmt.Errorf("reading a frame's head: %w", err))
		return
	}
	n, _, _ := serve.ParseHopRequest(head[:])
	frame := io.LimitReader(br, int64(n))
	var body []byte
	piece := make([]byte, 300)
	for {
		runtime.Gosched() // a slow reader: let the client's side run between pieces
		n, err := frame.Read(piece)
		if body = append(body, piece[:n]...); err != nil {
			s.add(checkSelfDescribing(body, err != io.EOF))
			break
		}
	}
	s.bodies.Add(1)
}

// close stops the replica and returns what it found wrong.
func (s *earlyShedder) close() []error {
	s.lis.Close()
	s.conns.Wait()
	return s.all()
}

// hammer sends requests self-describing bodies through rem from each of
// hops goroutines and expects every one shed.
func hammer(t *testing.T, rem *Remote, hops, requests, rows, width int) {
	var wg sync.WaitGroup
	for w := 0; w < hops; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < requests; j++ {
				k := 1000 + (w*requests+j)%9000
				_, err := predict(context.Background(), rem, selfDescribing(k, rows, width))
				if be, ok := err.(*BackendError); !ok || be.Status != http.StatusTooManyRequests || be.RetryAfter != "1" {
					t.Errorf("hop %d request %d: %v, want the replica's 429", w, j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoteHopBodyNeverRecycledMidWrite: a hop's pooled request buffer is
// not handed to another hop while it is still being sent. The replica answers
// before it reads and then reads slowly, eight hops share one Remote, and
// every body must be whole and of one request.
func TestRemoteHopBodyNeverRecycledMidWrite(t *testing.T) {
	const hops, requests = 8, 500
	t.Run("transport", func(t *testing.T) {
		stub := newEarlyShedder(t)
		rem := newTestRemote(t, "shedder", "http://"+stub.lis.Addr().String(), RemoteConfig{})
		hammer(t, rem, hops, requests, 32, 64) // 2048 values, ~10 KB a body
		for _, err := range stub.close() {
			t.Error(err)
		}
		if got := stub.bodies.Load(); got != hops*requests {
			t.Errorf("the replica read %d bodies, want %d", got, hops*requests)
		}
	})
}

// closingListener hands out connections the test can close from the
// replica's side, as a replica does with a keep-alive connection left idle.
type closingListener struct {
	net.Listener
	mu       sync.Mutex
	accepted []net.Conn
}

func (l *closingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.accepted = append(l.accepted, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *closingListener) conns() []net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.accepted)
}

// TestRemoteRetriesOnStaleConn: a hop that draws a keep-alive connection the
// replica has closed is sent again on a fresh one, so the router sees one
// success: no failover, no breaker failure, and the body the replica got is
// whole.
func TestRemoteRetriesOnStaleConn(t *testing.T) {
	var bodies [][]byte
	ts := httptest.NewUnstartedServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body) // one request at a time
		answerEmptyPredictions(w, body)
	}, nil))
	lis := &closingListener{Listener: ts.Listener}
	ts.Listener = lis
	ts.Start()
	defer ts.Close()
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	rt := newTestRouter(t, RouterConfig{}, rem)

	route := func(k int) {
		t.Helper()
		resp, err := rt.Route(context.Background(), selfDescribing(k, 8, 32))
		if err != nil || resp.Count != 8 || len(resp.Replicas) != 1 || resp.Replicas[0].Rows != 8 {
			t.Fatalf("route %d: %v, %+v", k, err, resp)
		}
	}
	route(1111)
	if n := len(lis.conns()); n != 1 {
		t.Fatalf("%d dials after one request, want 1", n)
	}
	lis.conns()[0].Close()
	route(2222)
	if n := len(lis.conns()); n != 2 {
		t.Fatalf("%d dials, want 2: the second request was not replayed on a new connection", n)
	}
	if len(bodies) != 2 {
		t.Fatalf("the replica saw %d requests, want 2", len(bodies))
	}
	for _, body := range bodies {
		if err := checkSelfDescribing(body, false); err != nil {
			t.Error(err)
		}
	}
	if !bytes.Contains(bodies[1], []byte("2222")) {
		t.Errorf("the replayed body is not the second request's: %.60s", bodies[1])
	}
	st := rt.replicas["r0"].breaker.Status()
	if n := rt.metrics.failovers.Load(); n != 0 || st.Failures != 0 || st.Successes != 2 {
		t.Errorf("%d failovers, breaker %d failures %d successes; want 0, 0, 2", n, st.Failures, st.Successes)
	}
	if d, r := rem.dialled.Load(), rem.reused.Load(); d != 2 || r != 1 {
		t.Errorf("hops were handed %d dialled and %d reused connections, want 2 and 1", d, r)
	}
	route(3333) // the replayed hop's storage serves the next
	if err := checkSelfDescribing(bodies[2], false); err != nil || !bytes.Contains(bodies[2], []byte("3333")) {
		t.Errorf("third body: %v, %.60s", err, bodies[2])
	}
}

// TestRemoteDropsAStalePoolAtOnce: a replica that closes every pooled
// connection at once, as one restarted on the same address has, costs no
// request. The hop that draws the first stale connection closes the others,
// which sat idle longer, and is replayed on a new one: no failover, no breaker
// failure, and one dial in all.
func TestRemoteDropsAStalePoolAtOnce(t *testing.T) {
	const pooled = 4
	var arrived atomic.Int32
	var together sync.WaitGroup
	together.Add(pooled)
	ts := httptest.NewUnstartedServer(hopReplica(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if arrived.Add(1) <= pooled { // held until all are in, so each has its own connection
			together.Done()
			together.Wait()
		}
		answerEmptyPredictions(w, body)
	}, nil))
	lis := &closingListener{Listener: ts.Listener}
	ts.Listener = lis
	ts.Start()
	defer ts.Close()
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	rt := newTestRouter(t, RouterConfig{}, rem)
	route := func(k int) error {
		resp, err := rt.Route(context.Background(), selfDescribing(k, 8, 32))
		if err == nil && resp.Count != 8 {
			err = fmt.Errorf("%d predictions, want 8", resp.Count)
		}
		return err
	}

	var wg sync.WaitGroup
	for i := 0; i < pooled; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := route(1000 + i); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := idleConns(rem); n != pooled {
		t.Fatalf("%d connections pooled, want %d", n, pooled)
	}
	for _, c := range lis.conns() {
		c.Close()
	}
	for i := 0; i < pooled; i++ {
		if err := route(2000 + i); err != nil {
			t.Fatalf("request %d after the replica closed its connections: %v", i, err)
		}
	}
	st := rt.replicas["r0"].breaker.Status()
	if n := rt.metrics.failovers.Load(); n != 0 || st.Failures != 0 {
		t.Errorf("%d failovers and %d breaker failures, want 0 and 0", n, st.Failures)
	}
	if n, idle := len(lis.conns()), idleConns(rem); n != pooled+1 || idle != 1 {
		t.Errorf("the replica accepted %d connections and %d are pooled, want %d and 1", n, idle, pooled+1)
	}
	if d, r := rem.dialled.Load(), rem.reused.Load(); d != pooled+1 || r != pooled {
		t.Errorf("hops were handed %d dialled and %d reused connections, want %d and %d", d, r, pooled+1, pooled)
	}
}

// TestRemoteMalformedBaseURL: NewRemote cannot fail, so a base URL that does
// not parse fails every call, with the error parsing it per call gave.
func TestRemoteMalformedBaseURL(t *testing.T) {
	const base = "http://bad host:80"
	rem := newTestRemote(t, "bad", base, RemoteConfig{})
	ctx := context.Background()
	_, wantPredict := http.NewRequestWithContext(ctx, http.MethodGet, base+serve.HopPath, nil)
	_, wantHealth := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	_, wantMetrics := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	_, wantTrace := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trace/00000000000000ff", nil)
	_, errPredict := predict(ctx, rem, selfDescribing(1000, 1, 1))
	_, errMetrics := rem.Metrics(ctx)
	_, errTrace := rem.FetchTrace(ctx, 0xff)
	for name, pair := range map[string][2]error{
		"Predict":    {errPredict, wantPredict},
		"Health":     {rem.Health(ctx), wantHealth},
		"Metrics":    {errMetrics, wantMetrics},
		"FetchTrace": {errTrace, wantTrace},
	} {
		if pair[1] == nil || pair[0] == nil || pair[0].Error() != pair[1].Error() {
			t.Errorf("%s: %v, want %v", name, pair[0], pair[1])
		}
	}
}

// TestRemotePredictAllocs bounds what a warm 16-row hop allocates, its
// replica (serve's handler over a Service whose cache holds the rows)
// included, so that a hop or a frame that starts copying its body or building
// contexts again fails here and not in a benchmark.
func TestRemotePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	dir, pool := e2eFixture(t)
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{CacheSize: 1 << 10})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(serve.NewHandler(svc, serve.HandlerConfig{}))
	t.Cleanup(ts.Close)
	rem := newTestRemote(t, "r0", ts.URL, RemoteConfig{})
	req := &serve.PredictRequest{System: "theta", Rows: pool[:16]}
	rows := len(req.Rows)
	ctx := context.Background()

	// The reply is decoded into storage the router's scratch would reuse.
	resp := new(serve.PredictResponse)
	hop := func() {
		err := rem.Predict(ctx, req, resp)
		if err != nil || len(resp.Predictions) != rows || !resp.Predictions[rows-1].CacheHit {
			t.Fatalf("predict: %v", err)
		}
	}
	const runs = 200
	if err := rem.Predict(ctx, req, resp); err != nil {
		t.Fatal(err)
	}
	objects := testing.AllocsPerRun(runs, hop)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a hop of %d rows allocates %.1f objects and %.0f bytes, the replica's included", rows, objects, size)
	// Measured: 0 objects and about 240 bytes, where the hop as a POST to
	// net/http's server took 24 objects and 2.5 KB. The byte bound leaves
	// room for a pool refill after a collection and for stack growth, which
	// the byte count includes.
	if objects != 0 || size > 1024 {
		t.Errorf("a hop allocates %.1f objects and %.0f bytes, want 0 and at most 1024", objects, size)
	}
	if d := rem.dialled.Load(); d != 1 {
		t.Errorf("the hops dialled %d connections, want 1", d)
	}
}

// cannedHop is a 16-row predict request and a replica's 200 to it as a reply
// frame, encoded once by the production writer, for a test to replay.
func cannedHop() (*serve.PredictRequest, []byte) {
	const rows = 16
	req := &serve.PredictRequest{System: "theta", Rows: make([][]float64, rows)}
	for i := range req.Rows {
		req.Rows[i] = make([]float64, 101)
		for j := range req.Rows[i] {
			req.Rows[i][j] = float64(i*1000+j) * 1.0625
		}
	}
	resp := &serve.PredictResponse{System: "theta", Version: 1, Count: rows, Predictions: make([]serve.PredictionResult, rows),
		ServerTimings: &serve.ServerTimings{TotalNs: 1}}
	for i := range resp.Predictions {
		resp.Predictions[i] = serve.PredictionResult{Log10Throughput: 9.5, Guard: serve.GuardConfig{}.Diagnose(uq.Prediction{EU: 0.01, AU: 0.04})}
	}
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, http.StatusOK, resp)
	return req, frameOf(http.StatusOK, 0, rec.Body.String(), true)
}

// TestRemotePredictAllocatesNothing: a warm hop on a pooled connection, under
// a deadline and with a trace parent, allocates nothing, its frame, reply and
// cancel watch included, against a replica that answers canned frames.
func TestRemotePredictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	stub := newRawReplica(t)
	stub.keepAlive.Store(true)
	req, reply := cannedHop()
	req.TraceParent = 0xab
	stub.reply.Store(&reply)
	rem := newTestRemote(t, "r0", "http://"+stub.lis.Addr().String(), RemoteConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp := new(serve.PredictResponse)
	hop := func() {
		if err := rem.Predict(ctx, req, resp); err != nil || len(resp.Predictions) != len(req.Rows) {
			t.Fatalf("predict: %v, %d predictions", err, len(resp.Predictions))
		}
	}
	hop()
	if got := testing.AllocsPerRun(200, hop); got != 0 {
		t.Errorf("a warm hop allocates %.0f times, want 0", got)
	}
	if d := rem.dialled.Load(); d != 1 {
		t.Errorf("the hops dialled %d connections, want 1", d)
	}
}

// TestRemoteWatcherEndsWithItsConn: each connection's cancel watcher is one
// goroutine, which a completed hop leaves pooled with its connection, and
// which a cancelled hop, whose connection is closed and never pooled, and
// CloseIdleConnections end before they return. Watchers are counted by the
// goroutine that dialled them, this test's: runtime.NumGoroutine also moves
// as goroutines of the tests before it end.
func TestRemoteWatcherEndsWithItsConn(t *testing.T) {
	stub := newRawReplica(t)
	stub.keepAlive.Store(true)
	req, reply := cannedHop()
	stub.reply.Store(&reply)
	rem := NewRemote("r0", "http://"+stub.lis.Addr().String(), RemoteConfig{})
	defer rem.CloseIdleConnections()
	buf := make([]byte, 1<<20)
	self := bytes.Fields(buf[:runtime.Stack(buf, false)])[1] // "goroutine <id> [running]:"
	dialledHere := append(append([]byte("in goroutine "), self...), '\n')
	watchers := func(when string, want int) {
		t.Helper()
		// A watcher that has taken its last value may not have returned yet:
		// yield to it, never wait on a clock.
		var got int
		for i := 0; i < 1000; i++ {
			got = 0
			for g := range bytes.SplitSeq(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
				if bytes.Contains(g, []byte("(*hopConn).watchCancel")) && bytes.Contains(g, dialledHere) {
					got++
				}
			}
			if got <= want {
				break
			}
			runtime.Gosched()
		}
		if got != want {
			t.Fatalf("%s: %d watchers, want %d\n%s", when, got, want, buf[:runtime.Stack(buf, true)])
		}
	}

	if _, err := predict(context.Background(), rem, req); err != nil {
		t.Fatal(err)
	}
	watchers("a completed hop pooled its connection", 1)

	// The replica reads the next request and never answers it; the caller
	// gives up once it has.
	hang := []byte{}
	stub.reply.Store(&hang)
	<-stub.got
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-stub.got
		cancel()
	}()
	if _, err := predict(ctx, rem, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled hop: %v, want context.Canceled", err)
	}
	if n := idleConns(rem); n != 0 {
		t.Fatalf("a cancelled hop pooled its connection: %d idle", n)
	}
	watchers("a cancelled hop closed its connection", 0)

	stub.reply.Store(&reply)
	if _, err := predict(context.Background(), rem, req); err != nil {
		t.Fatal(err)
	}
	watchers("a second completed hop", 1)
	rem.CloseIdleConnections()
	watchers("CloseIdleConnections", 0)
}

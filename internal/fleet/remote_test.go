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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/serve"
)

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

// earlyShedder is a raw-TCP replica that sheds the way net/http's own server
// does when a handler answers without reading a large body: 429 with
// Connection: close the moment it has the headers, the body read only then.
// The client is let go with its write of the body still running, and the
// transport, which would wait for that write before reusing the connection,
// has no reason to. Every body is checked as far as it arrives.
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
	const reply = `{"error":"overloaded (test): retry later"}`
	req, err := http.ReadRequest(bufio.NewReader(c))
	if err != nil {
		s.add(fmt.Errorf("reading a request's headers: %w", err))
		return
	}
	if _, err := fmt.Fprintf(c, "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply); err != nil {
		return
	}
	body, err := io.ReadAll(req.Body) // the client hangs up once it has its answer
	s.add(checkSelfDescribing(body, err != nil))
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
				_, err := rem.Predict(context.Background(), selfDescribing(k, rows, width))
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
// not handed to another hop while the transport can still be writing it. The
// replica answers before it reads, eight hops share one Remote, and every
// body must be of one request, where it arrives and wherever the link looks
// at it on the way. With the "written" condition deleted from
// hopBody.release this fails: always under -race, where the link's read of a
// buffer the next hop is encoding into is a reported race whether or not the
// two overlap, and in most runs without.
func TestRemoteHopBodyNeverRecycledMidWrite(t *testing.T) {
	const hops, requests = 8, 500
	t.Run("transport", func(t *testing.T) {
		stub := newEarlyShedder(t)
		var link errorLog
		dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := new(net.Dialer).DialContext(ctx, network, addr)
			return slowConn{c, &link}, err
		}
		rem := NewRemote("shedder", "http://"+stub.lis.Addr().String(),
			RemoteConfig{Transport: &http.Transport{DialContext: dial}})
		hammer(t, rem, hops, requests, 32, 64) // 2048 values, ~10 KB a body
		for _, err := range append(stub.close(), link.all()...) {
			t.Error(err)
		}
		if got := stub.bodies.Load(); got != hops*requests {
			t.Errorf("the replica read %d bodies, want %d", got, hops*requests)
		}
	})

	// A RoundTripper may read the body after RoundTrip has returned, and one
	// that is not net/http's fires no trace hook: nothing then says when the
	// buffer is free, so it must never reach the pool.
	t.Run("custom RoundTripper", func(t *testing.T) {
		runtime.GC()
		runtime.GC() // twice empties a sync.Pool, victims included
		late := &lateReader{}
		rem := NewRemote("late", "http://replica.invalid", RemoteConfig{Transport: late})
		hammer(t, rem, hops, requests, 16, 16)
		late.readers.Wait()
		for _, err := range late.all() {
			t.Error(err)
		}
		if raceEnabled {
			return // the pool drops at random under -race: emptiness proves nothing
		}
		for i := 0; i < 4*hops; i++ {
			if h := hopPool.Get().(*hopBody); h.buf != nil {
				t.Fatalf("a hop through a RoundTripper that fires no trace hook was pooled (%d-byte buffer)", cap(h.buf))
			}
		}
	})
}

// slowConn is a link slower than loopback that looks at what it carries: a
// body goes out 1 KB at a time, each piece after a pause and a check that the
// buffer it is cut from still holds one request. Loopback's socket buffers swallow a body of any size a
// test can afford long before the replica's answer is back (and stall on
// window probes when shrunk); this write is still under way then, and its
// next read of the buffer comes after the hop has returned.
type slowConn struct {
	net.Conn
	torn *errorLog
}

func (c slowConn) Write(p []byte) (int, error) {
	headers := bytes.HasPrefix(p, []byte("POST ")) // with them, the body's first piece
	for done := 0; done < len(p); {
		piece := p[done:min(done+1<<10, len(p))]
		time.Sleep(200 * time.Microsecond)
		if !headers {
			c.torn.add(checkSelfDescribing(p, true)) // all of it: a re-encoding may be over by now
		}
		n, err := c.Conn.Write(piece)
		if done += n; err != nil {
			return done, err
		}
	}
	return len(p), nil
}

// lateReader answers 429 at once and reads the request body afterwards, on
// its own goroutine, as the RoundTripper contract allows.
type lateReader struct {
	readers sync.WaitGroup
	errorLog
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	l.readers.Add(1)
	go func() {
		defer l.readers.Done()
		runtime.Gosched() // let the hop return, and the next one encode, first
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err == nil {
			err = checkSelfDescribing(body, false)
		}
		l.add(err)
	}()
	return &http.Response{
		StatusCode: http.StatusTooManyRequests, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Retry-After": {"1"}},
		Body:    io.NopCloser(strings.NewReader(`{"error":"overloaded (test): retry later"}`)),
		Request: req,
	}, nil
}

// staleConn is a connection whose writes start failing on command while its
// reads stay blocked: what a keep-alive connection the replica has closed
// looks like to a transport that has not yet heard.
type staleConn struct {
	net.Conn
	stale *atomic.Bool
}

func (c staleConn) Write(p []byte) (int, error) {
	if c.stale.Load() {
		return 0, errors.New("write: broken pipe (test: replica closed the idle connection)")
	}
	return c.Conn.Write(p)
}

// TestRemoteRetriesOnStaleConn: a hop that draws a dead keep-alive connection
// is replayed by net/http on a fresh one through the request's GetBody, so
// the router sees one success: no failover, no breaker failure, and the body
// the replica got is whole.
func TestRemoteRetriesOnStaleConn(t *testing.T) {
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body) // one request at a time
		answerEmptyPredictions(w, body)
	}))
	defer ts.Close()

	var dials atomic.Int32
	var stale []*atomic.Bool
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := new(net.Dialer).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		flag := new(atomic.Bool)
		stale = append(stale, flag) // dials here are sequential
		return staleConn{c, flag}, nil
	}}
	defer tr.CloseIdleConnections()
	rem := NewRemote("r0", ts.URL, RemoteConfig{Transport: tr})
	rt := newTestRouter(t, RouterConfig{}, rem)

	route := func(k int) {
		t.Helper()
		resp, err := rt.Route(context.Background(), selfDescribing(k, 8, 32))
		if err != nil || resp.Count != 8 || len(resp.Replicas) != 1 || resp.Replicas[0].Rows != 8 {
			t.Fatalf("route %d: %v, %+v", k, err, resp)
		}
	}
	route(1111)
	if dials.Load() != 1 {
		t.Fatalf("%d dials after one request, want 1", dials.Load())
	}
	stale[0].Store(true)
	route(2222)
	if dials.Load() != 2 {
		t.Fatalf("%d dials, want 2: the second request was not replayed on a new connection", dials.Load())
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
	route(3333) // the replayed hop's storage, pooled or not, serves the next
	if err := checkSelfDescribing(bodies[2], false); err != nil || !bytes.Contains(bodies[2], []byte("3333")) {
		t.Errorf("third body: %v, %.60s", err, bodies[2])
	}
}

// TestRemoteMalformedBaseURL: NewRemote cannot fail, so a base URL that does
// not parse fails every call, with the error parsing it per call gave.
func TestRemoteMalformedBaseURL(t *testing.T) {
	const base = "http://bad host:80"
	rem := NewRemote("bad", base, RemoteConfig{})
	ctx := context.Background()
	_, wantPredict := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/predict", nil)
	_, wantHealth := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	_, wantMetrics := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	_, wantTrace := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trace/00000000000000ff", nil)
	_, errPredict := rem.Predict(ctx, selfDescribing(1000, 1, 1))
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

// TestRemotePredictAllocs bounds what a hop allocates beyond a bare RoundTrip
// of the same body on the same transport: the difference is the reply's
// decoded form, the hop's two contexts and little else, whatever this Go
// version's net/http costs by itself. It also bounds the hop outright, so
// that a transport whose write buffer no longer takes a 16-row body whole
// fails here and not in a benchmark.
func TestRemotePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const rows = 16
	req := &serve.PredictRequest{System: "theta", Rows: make([][]float64, rows)}
	for i := range req.Rows {
		req.Rows[i] = make([]float64, 101)
		for j := range req.Rows[i] {
			req.Rows[i][j] = float64(i*1000+j) * 1.0625
		}
	}
	canned := &serve.PredictResponse{System: "theta", Version: 1, Count: rows, Predictions: make([]serve.PredictionResult, rows),
		ServerTimings: &serve.ServerTimings{TotalNs: 1}}
	for i := range canned.Predictions {
		canned.Predictions[i] = serve.PredictionResult{Log10Throughput: 9.5, Throughput: 3162277660.1683793,
			Guard: &serve.Guard{EU: 0.1, AU: 0.2, NoiseFloorPct: 0.05, ErrorSource: serve.SourceModeling}}
	}
	// Encoded once by the production writer and replayed: the bound on a hop
	// below counts this server's allocations too.
	canned200 := httptest.NewRecorder()
	serve.WriteJSON(canned200, http.StatusOK, canned)
	reply := canned200.Body.Bytes()
	sink := make([]byte, 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for n, err := 1, error(nil); n > 0 && err == nil; {
			n, err = r.Body.Read(sink)
		}
		serve.WriteJSONBody(w, http.StatusOK, reply)
	}))
	defer ts.Close()
	rem := NewRemote("r0", ts.URL, RemoteConfig{})
	ctx := context.Background()
	body, err := serve.AppendPredictRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}

	hop := func() {
		resp, err := rem.Predict(ctx, req)
		if err != nil || len(resp.Predictions) != rows || resp.Predictions[rows-1].Guard.ErrorSource != serve.SourceModeling {
			t.Fatalf("predict: %v", err)
		}
	}
	bare := func() {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := rem.transport.RoundTrip(hreq)
		if err != nil {
			t.Fatal(err)
		}
		for n, err := 1, error(nil); n > 0 && err == nil; {
			n, err = resp.Body.Read(sink)
		}
		resp.Body.Close()
	}
	bytesPerRun := func(f func()) float64 {
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	hop()
	bare()
	hopObjects, hopBytes := testing.AllocsPerRun(200, hop), bytesPerRun(hop)
	objects, size := hopObjects-testing.AllocsPerRun(200, bare), hopBytes-bytesPerRun(bare)
	t.Logf("a hop of %d body bytes allocates %.0f objects and %.0f bytes, %.0f and %.0f more than a bare RoundTrip",
		len(body), hopObjects, hopBytes, objects, size)
	// Measured: 6 objects and 1.9 to 2.2 KB more. The decoded reply is four
	// objects and ~1.5 KB at 16 guarded rows, the trace context one more and the
	// hop's own timeout context five (context, timer, its closure, the cancel
	// function, the Done channel); the hand-built request spares
	// http.NewRequest's URL parse, body reader and GetBody closure, which pays
	// for four of them. The bounds leave room for a pool refill after a
	// collection and for stack growth, which the byte count includes.
	if objects > 8 || size > 4096 {
		t.Errorf("a hop allocates %.0f objects and %.0f bytes more than a bare RoundTrip of its body, want at most 8 and 4096", objects, size)
	}
	// Measured: 85 objects and 8.5 KB a hop, this test's server included (101
	// and 22.3 KB through http.DefaultTransport: past its 4 KB write buffer
	// net/http copies what is left of the 15 KB body through a buffer of that
	// size, allocated per request; an 8 KB buffer reads 16.8 KB here).
	if hopBytes > 11<<10 {
		t.Errorf("a hop allocates %.0f bytes, want at most %d: is its request body being copied through a buffer of its own size?", hopBytes, 11<<10)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/dataset"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// hopClient is a router's side of one hop connection, written by hand.
type hopClient struct {
	conn  net.Conn
	br    *bufio.Reader
	frame []byte
	head  [HopReplyHead]byte
	body  []byte
}

// dialHop opens a hop connection to the server at addr.
func dialHop(t testing.TB, addr string) *hopClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", HopPath, addr, HopProtocol)
	h := &hopClient{conn: conn, br: bufio.NewReader(conn)}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != HopProtocol {
		t.Fatalf("upgrade: %v, %+v", err, resp)
	}
	return h
}

// appendFrame appends a request frame of body, whatever its bytes.
func appendFrame(dst, body []byte, budgetMs uint32, parent uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, budgetMs)
	return append(binary.BigEndian.AppendUint64(dst, parent), body...)
}

// do sends body as one frame and reads the reply frame into h.body.
func (h *hopClient) do(body []byte, budgetMs uint32) (status int, retryAfter uint32, err error) {
	h.frame = appendFrame(h.frame[:0], body, budgetMs, 0)
	if _, err := h.conn.Write(h.frame); err != nil {
		return 0, 0, err
	}
	if _, err := io.ReadFull(h.br, h.head[:]); err != nil {
		return 0, 0, err
	}
	status, retryAfter, n := ParseHopReply(h.head[:])
	if int(n) > cap(h.body) {
		h.body = make([]byte, n)
	}
	h.body = h.body[:n]
	_, err = io.ReadFull(h.br, h.body)
	return status, retryAfter, err
}

// timings masks a reply's server_timings: clock readings, which no two calls
// share.
var timings = regexp.MustCompile(`"server_timings":\{[^}]*\}`)

// TestEnvelopesGiveOneAnswer: one request posted to /v1/predict and sent as a
// hop frame gets one answer — status, Retry-After and body bytes, the
// server_timings clock readings apart — from a 200 to every error status the
// predict core answers.
func TestEnvelopesGiveOneAnswer(t *testing.T) {
	frame, _, _ := fixture(t)
	rows, err := json.Marshal(frame.Rows()[:3])
	if err != nil {
		t.Fatal(err)
	}
	body := func(s string) []byte { return []byte(strings.ReplaceAll(s, "ROWS", string(rows))) }
	wide := fmt.Sprintf("[%s1e999]", strings.Repeat("1,", len(frame.Row(0))-1))
	type setup struct {
		opt   Options
		cfg   HandlerConfig
		hold  func(t *testing.T, svc *Service) (release func()) // run before the two calls
		delay uint32                                            // the budget, in ms; 0 is none
	}
	shedding := func() setup {
		gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 1, RetryAfter: 3 * time.Second})
		return setup{cfg: HandlerConfig{Gate: gate}, hold: func(*testing.T, *Service) func() {
			gate.Admit(resilience.ClassPredict) // the one slot is taken
			return func() { gate.Release(0) }
		}}
	}
	held := func() setup {
		g, inj := newEvalGate()
		return setup{opt: Options{Workers: 1, Chaos: inj}, delay: 1, hold: func(t *testing.T, svc *Service) func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				svc.Predict(context.Background(), "theta", 2, [][]float64{frame.Row(7)})
			}()
			g.waitEntered(t) // the one evaluation slot is held
			return func() { g.open(); <-done }
		}}
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		setup  setup
		status int
	}{
		{"ok", body(`{"system":"theta","rows":ROWS}`), setup{}, http.StatusOK},
		{"one row", body(fmt.Sprintf(`{"system":"theta","row":%s}`, mustJSON(t, frame.Row(4)))), setup{}, http.StatusOK},
		{"undecodable", []byte(`{"system":"theta","rows":[[1,2]`), setup{}, http.StatusBadRequest},
		{"data after the value", body(`{"system":"theta","rows":ROWS}t`), setup{}, http.StatusBadRequest},
		{"+1e999", body(`{"system":"theta","row":` + wide + `}`), setup{}, http.StatusBadRequest},
		{"-1e999", body(`{"system":"theta","rows":[` + strings.Replace(wide, "1e999", "-1e999", 1) + `]}`), setup{}, http.StatusBadRequest},
		{"unknown system", []byte(`{"system":"nope","row":[1]}`), setup{}, http.StatusNotFound},
		{"unknown version", body(`{"system":"theta","version":9,"rows":ROWS}`), setup{}, http.StatusNotFound},
		{"wrong width", []byte(`{"system":"theta","row":[1,2]}`), setup{}, http.StatusBadRequest},
		{"shed", body(`{"system":"theta","rows":ROWS}`), shedding(), http.StatusTooManyRequests},
		{"chaos", body(`{"system":"theta","rows":ROWS}`), setup{opt: Options{Chaos: chaos.NewInjector(chaos.Config{ErrorProb: 1}, 1)}}, http.StatusServiceUnavailable},
		{"expired budget", body(`{"system":"theta","rows":ROWS}`), held(), http.StatusGatewayTimeout},
		{"panic", body(`{"system":"theta","rows":ROWS}`), setup{opt: Options{Chaos: chaos.NewInjector(chaos.Config{PanicProb: 1}, 1)}}, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(fixtureRegistry(t), tc.setup.opt) // no cache: both calls evaluate
			t.Cleanup(svc.Close)
			ts := httptest.NewServer(NewHandler(svc, tc.setup.cfg))
			t.Cleanup(ts.Close)
			hop := dialHop(t, ts.Listener.Addr().String())
			if tc.setup.hold != nil {
				defer tc.setup.hold(t, svc)()
			}

			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup.delay > 0 {
				req.Header.Set(DeadlineHeader, strconv.Itoa(int(tc.setup.delay)))
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			posted, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			status, retryAfter, err := hop.do(tc.body, tc.setup.delay)
			if err != nil {
				t.Fatal(err)
			}
			framedRetry := ""
			if retryAfter != 0 {
				framedRetry = strconv.Itoa(int(retryAfter))
			}
			if resp.StatusCode != tc.status {
				t.Errorf("posted: %d %s, want %d", resp.StatusCode, posted, tc.status)
			}
			gotBody, wantBody := timings.ReplaceAll(hop.body, nil), timings.ReplaceAll(posted, nil)
			if status != resp.StatusCode || framedRetry != resp.Header.Get("Retry-After") || !bytes.Equal(gotBody, wantBody) {
				t.Errorf("framed: %d, Retry-After %q, %s\nposted: %d, Retry-After %q, %s",
					status, framedRetry, hop.body, resp.StatusCode, resp.Header.Get("Retry-After"), posted)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHopFrameAllocatesNothing: a warm frame, its rows in the cache, costs
// the replica no allocation from its head's read to its reply's write; this
// test's client allocates nothing either.
func TestHopFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{CacheSize: 1 << 10})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(ts.Close)
	hop := dialHop(t, ts.Listener.Addr().String())
	body, err := AppendPredictRequest(nil, &PredictRequest{System: "theta", Rows: frame.Rows()[:16]})
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if status, _, err := hop.do(body, 0); err != nil || status != http.StatusOK {
			t.Fatalf("frame: %d %v %s", status, err, hop.body)
		}
	}
	call()
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("a warm 16-row frame allocates %.1f times, want 0", n)
	}
}

// TestHopCancelsAFrameItsRouterLeft: a frame waiting for an evaluation slot
// stops waiting once the router closes its connection, as a posted request
// does when its client goes away.
func TestHopCancelsAFrameItsRouterLeft(t *testing.T) {
	frame, _, _ := fixture(t)
	g, inj := newEvalGate()
	svc := NewService(fixtureRegistry(t), Options{Workers: 1, Chaos: inj})
	t.Cleanup(svc.Close)
	t.Cleanup(g.open)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(ts.Close)
	go svc.Predict(context.Background(), "theta", 2, [][]float64{frame.Row(0)})
	g.waitEntered(t) // the one slot is held

	hop := dialHop(t, ts.Listener.Addr().String())
	body, err := AppendPredictRequest(nil, &PredictRequest{System: "theta", Row: frame.Row(1)})
	if err != nil {
		t.Fatal(err)
	}
	hop.conn.Write(appendFrame(nil, body, 0, 0))
	m := svc.Metrics()
	waitFor(t, "the frame waits for the slot", func() bool { return m.QueueDepthFn() == 1 })
	hop.conn.Close()
	waitFor(t, "the frame stops waiting", func() bool { return m.QueueDepthFn() == 0 })
}

// TestServiceCloseDrainsTheHop: Close answers the frame in flight, then
// closes its connection; an idle hop connection is closed at once, and a new
// upgrade is refused.
func TestServiceCloseDrainsTheHop(t *testing.T) {
	frame, _, _ := fixture(t)
	g, inj := newEvalGate()
	svc := NewService(fixtureRegistry(t), Options{Workers: 1, Chaos: inj})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	idle, busy := dialHop(t, addr), dialHop(t, addr)
	body, err := AppendPredictRequest(nil, &PredictRequest{System: "theta", Row: frame.Row(1)})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		status, _, err := busy.do(body, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, busy.body)
		}
		answered <- err
	}()
	g.waitEntered(t) // the frame is being evaluated
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	if _, err := idle.br.ReadByte(); err != io.EOF {
		t.Fatalf("the idle connection read %v, want it closed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a frame in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.open()
	if err := <-answered; err != nil {
		t.Fatalf("the frame in flight: %v", err)
	}
	if _, err := busy.br.ReadByte(); err != io.EOF {
		t.Fatalf("after its frame the connection read %v, want it closed", err)
	}
	<-closed
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", HopPath, HopProtocol)
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("an upgrade after Close: %v, %+v; want 503", err, resp)
	}
}

// TestHopBounds: a frame whose body outgrows maxRequestBody is answered as a
// posted one is and ends the connection, its rest unread; one whose body
// stalls is cut at the frame bound, an idle connection at the idle bound.
// An upgrade that lacks its headers, or not a GET, is refused.
func TestHopBounds(t *testing.T) {
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()

	hop := dialHop(t, addr)
	head := appendFrame(nil, nil, 0, 0)
	binary.BigEndian.PutUint32(head, maxRequestBody+1)
	hop.conn.Write(head)
	go hop.conn.Write(bytes.Repeat([]byte(" "), maxRequestBody+1))
	if _, err := io.ReadFull(hop.br, hop.head[:]); err != nil {
		t.Fatal(err)
	}
	status, _, n := ParseHopReply(hop.head[:])
	reply := make([]byte, n)
	io.ReadFull(hop.br, reply)
	if want := `{"error":"decoding request: http: request body too large"}` + "\n"; status != http.StatusBadRequest || string(reply) != want {
		t.Errorf("an oversized frame: %d %s, want 400 %s", status, reply, want)
	}
	if _, err := hop.br.ReadByte(); err == nil {
		t.Error("the connection of an oversized frame stayed open")
	}

	svc = NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	svc.hops.frameBound, svc.hops.idleBound = 50*time.Millisecond, 50*time.Millisecond
	ts = httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(ts.Close)
	addr = ts.Listener.Addr().String()
	for name, stall := range map[string][]byte{"idle": nil, "mid-frame": appendFrame(nil, []byte(`{"sys`), 0, 0)[:HopRequestHead+2]} {
		hop := dialHop(t, addr)
		hop.conn.Write(stall)
		start := time.Now()
		if _, err := hop.br.ReadByte(); err != io.EOF {
			t.Errorf("%s: read %v, want the connection closed", name, err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("%s: closed after %v", name, took)
		}
	}

	for _, r := range []string{
		"GET /v1/hop HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/hop HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n",
		"POST /v1/hop HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: iotaxo-hop\r\nContent-Length: 0\r\n\r\n",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, r)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		conn.Close()
		if err != nil || resp.StatusCode/100 != 4 {
			t.Errorf("%q: %v, %+v; want a 4xx", r, err, resp)
		}
	}
}

// FuzzHopFrame feeds any bytes to a hop connection as its router's stream,
// then closes the router's side. Every whole frame in the stream is answered,
// in order, with a well-formed reply frame, a frame cut short is not, and
// the replica then closes the connection; nothing panics.
func FuzzHopFrame(f *testing.F) {
	// A two-feature model keeps the fuzz worker's set-up to milliseconds
	// under coverage instrumentation.
	data, err := dataset.NewFrame([]string{"posix_a", "posix_b"})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, b := float64(i%8+1), float64(i/8+1)
		if err := data.Append([]float64{a, b}, 1e6*a*b, dataset.Meta{JobID: i}); err != nil {
			f.Fatal(err)
		}
	}
	mv, err := BuildVersion("theta", 1, data, BootstrapConfig{Trees: 3, Depth: 2, EnsembleSize: 2, Epochs: 1})
	if err != nil {
		f.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(mv); err != nil {
		f.Fatal(err)
	}
	svc := NewService(reg, Options{CacheSize: 64})
	f.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	f.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()

	ok := []byte(`{"system":"theta","rows":[[1,2],[3,4]]}`)
	f.Add(appendFrame(nil, ok, 0, 0))
	f.Add(appendFrame(appendFrame(nil, ok, 50, 7), []byte(`{"system":"theta","row":[5,6]}`), 0, 0))
	f.Add(appendFrame(nil, []byte(`{"system":"theta","row":[1e999,1]}`), 0, 0))
	f.Add(appendFrame(nil, []byte(`{"system":"nope","row":[1]}`), 1, 0))
	f.Add(appendFrame(nil, ok, 0, 0)[:HopRequestHead+5])
	f.Add(appendFrame(nil, ok, 0, 0)[:7])
	f.Add(binary.BigEndian.AppendUint32(nil, maxRequestBody+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", HopPath, HopProtocol)
		go func() {
			conn.Write(stream)
			conn.(*net.TCPConn).CloseWrite()
		}()
		br := bufio.NewReader(conn)
		if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade: %v, %+v", err, resp)
		}
		replies, err := io.ReadAll(br)
		if err != nil {
			t.Fatalf("reading the replies: %v", err)
		}
		// The whole frames of the stream, each answered in order.
		for rest := stream; len(rest) >= HopRequestHead; {
			n, _, _ := ParseHopRequest(rest)
			if int64(n) > int64(len(rest)-HopRequestHead) {
				break // cut short: unanswered
			}
			rest = rest[HopRequestHead+int(n):]
			if len(replies) < HopReplyHead {
				t.Fatalf("a whole frame went unanswered: %q", stream)
			}
			status, retryAfter, m := ParseHopReply(replies)
			replies = replies[HopReplyHead:]
			if status < 200 || status > 599 || retryAfter != 0 || int(m) > len(replies) {
				t.Fatalf("malformed reply head: %d, %d, %d bytes of %d", status, retryAfter, m, len(replies))
			}
			if body := replies[:m]; !json.Valid(body) || body[len(body)-1] != '\n' || status != http.StatusOK && !bytes.HasPrefix(body, []byte(`{"error":`)) {
				t.Fatalf("reply %d: %q", status, body)
			}
			replies = replies[m:]
		}
		if len(replies) > 0 {
			t.Fatalf("%d bytes answered past the whole frames: %q", len(replies), replies)
		}
	})
}

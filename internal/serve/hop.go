package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The router→replica predict hop. A router opens each of its predict
// connections with GET /v1/hop (Connection: Upgrade, Upgrade: iotaxo-hop);
// the replica answers 101 Switching Protocols, takes the connection off
// net/http and from then on reads request frames and writes reply frames on
// it, one reply a request, in order, until the router closes it, it sits idle
// past hopIdleTimeout or the Service closes. Integers are big-endian.
//
//	request frame: body length (4 bytes), remaining budget in ms (4; 0 is
//	               none), trace parent (8; 0 is none), then the body
//	               AppendPredictRequest writes
//	reply frame:   status (2 bytes), Retry-After in seconds (4; 0 is none),
//	               body length (4), then the body POST /v1/predict answers
//	               for the same request: the reply, or {"error":…}
//
// Both ends come from one build: the frame has no version, and a router
// reaches no replica that does not mount /v1/hop.

const (
	// HopPath is the route a hop connection is upgraded on.
	HopPath = "/v1/hop"
	// HopProtocol is the Upgrade token of a hop connection.
	HopProtocol = "iotaxo-hop"
	// HopRequestHead and HopReplyHead are the frame heads' sizes in bytes.
	HopRequestHead = 16
	HopReplyHead   = 10
)

// After the hijack the server's timeouts no longer apply; these are ioserve's
// own (cmd/internal/proc), applied to each frame.
const (
	// hopFrameTimeout bounds the read of a frame's body once its head is in.
	hopFrameTimeout = 30 * time.Second
	// hopWriteTimeout bounds the write of a reply frame.
	hopWriteTimeout = 60 * time.Second
	// hopIdleTimeout is how long a hop connection may wait for its next frame.
	hopIdleTimeout = 120 * time.Second
)

// AppendHopRequest appends req's request frame, with budgetMs (0: none) and
// req.TraceParent in its head. Like AppendPredictRequest, it fails on a
// non-finite feature value.
func AppendHopRequest(dst []byte, req *PredictRequest, budgetMs uint32) ([]byte, error) {
	at := len(dst)
	dst, err := AppendPredictRequest(append(dst, make([]byte, HopRequestHead)...), req)
	if n := len(dst) - at - HopRequestHead; err == nil && n > math.MaxUint32 {
		err = fmt.Errorf("serve: a %d-byte predict request outgrows a hop frame", n)
	}
	head := dst[at:]
	binary.BigEndian.PutUint32(head, uint32(len(dst)-at-HopRequestHead))
	binary.BigEndian.PutUint32(head[4:], budgetMs)
	binary.BigEndian.PutUint64(head[8:], req.TraceParent)
	return dst, err
}

// ParseHopRequest reads a request frame's head.
func ParseHopRequest(head []byte) (length, budgetMs uint32, parent uint64) {
	return binary.BigEndian.Uint32(head), binary.BigEndian.Uint32(head[4:]), binary.BigEndian.Uint64(head[8:])
}

// PutHopReply writes a reply frame's head into head.
func PutHopReply(head []byte, status int, retryAfter, length uint32) {
	binary.BigEndian.PutUint16(head, uint16(status))
	binary.BigEndian.PutUint32(head[2:], retryAfter)
	binary.BigEndian.PutUint32(head[6:], length)
}

// ParseHopReply reads a reply frame's head.
func ParseHopReply(head []byte) (status int, retryAfter, length uint32) {
	return int(binary.BigEndian.Uint16(head)), binary.BigEndian.Uint32(head[2:]), binary.BigEndian.Uint32(head[6:])
}

// switching is the replica's answer to a hop upgrade.
const switching = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + HopProtocol + "\r\n\r\n"

// handleHop is GET /v1/hop: upgrade the connection, then serve its frames.
func (p *predictor) handleHop(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method != http.MethodGet:
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	case !headerHas(r.Header, "Connection", "upgrade") || !headerHas(r.Header, "Upgrade", HopProtocol):
		WriteError(w, http.StatusBadRequest, "a hop needs Connection: Upgrade and Upgrade: "+HopProtocol)
		return
	}
	nc, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Sprintf("upgrading the hop: %v", err))
		return
	}
	c := &hopConn{p: p, conn: nc, br: rw.Reader, frames: make(chan hopFrame), done: make(chan struct{})}
	if !p.svc.hops.add(c) {
		nc.SetWriteDeadline(time.Now().Add(hopWriteTimeout))
		io.WriteString(nc, "HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
		nc.Close()
		return
	}
	defer p.svc.hops.remove(c)
	// The server's read and write deadlines are the request's; a hop's are
	// its frames'.
	nc.SetDeadline(time.Time{})
	nc.SetWriteDeadline(time.Now().Add(hopWriteTimeout))
	if _, err := io.WriteString(nc, switching); err != nil {
		nc.Close()
		return
	}
	c.serve()
}

// headerHas says whether h's comma-separated key values hold token.
func headerHas(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for elem := range strings.SplitSeq(v, ",") {
			if strings.EqualFold(strings.TrimSpace(elem), token) {
				return true
			}
		}
	}
	return false
}

// hopConn is one upgraded connection on the replica's side. Its reader (the
// handler's goroutine, serve) reads frames and hands them to its answerer,
// then goes on to read the next frame's head: that blocked read is how a
// router that closes the connection is seen while a frame is being served,
// which cancels ctx, the one context of the connection.
type hopConn struct {
	p      *predictor
	conn   net.Conn
	br     *bufio.Reader // the hijacked reader: what net/http read ahead is in it
	ctx    context.Context
	frames chan hopFrame // reader → answerer; closed when the reader ends
	done   chan struct{} // closed when the answerer ends
	head   [HopRequestHead]byte
	body   io.LimitedReader // over br, for the frame being read
	// inFlight counts frames read but not answered; closing is set by the
	// Service's Close, which closes the connection once inFlight is 0.
	mu       sync.Mutex
	inFlight int
	closing  bool
}

// hopFrame is one request frame handed to the answerer.
type hopFrame struct {
	c        *predictCall
	budgetMs int64
	parent   uint64
	last     bool // the body outgrew maxRequestBody: answered, then the connection is closed
}

// serve reads c's frames and returns once the answerer has ended and the
// connection is closed.
func (c *hopConn) serve() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.ctx = ctx
	go c.answer()
	if c.read() {
		cancel() // a frame still in service has lost its router
	}
	close(c.frames)
	<-c.done
	c.conn.Close()
}

// read reads frames and hands them to the answerer until the connection ends
// or fails, which it reports, or until the last frame it will read is handed
// over.
func (c *hopConn) read() (failed bool) {
	for {
		c.conn.SetReadDeadline(time.Now().Add(c.p.svc.hops.idleBound))
		if _, err := io.ReadFull(c.br, c.head[:]); err != nil || !c.begin() {
			return true
		}
		length, budgetMs, parent := ParseHopRequest(c.head[:])
		c.conn.SetReadDeadline(time.Now().Add(c.p.svc.hops.frameBound))
		f := hopFrame{c: getCall(HopReplyHead), budgetMs: -1, parent: parent, last: length > maxRequestBody}
		if budgetMs > 0 {
			f.budgetMs = int64(budgetMs)
		}
		// A body past the bound is read to the bound and refused as a posted
		// one is; the rest of it is never read.
		n := min(int64(length), maxRequestBody)
		c.body = io.LimitedReader{R: c.br, N: n}
		var err error
		if f.c.buf, err = ReadBody(f.c.buf[:0], &c.body, n); err != nil || c.body.N > 0 {
			f.c.release()
			return true
		}
		if f.last {
			f.c.readErr = &http.MaxBytesError{Limit: maxRequestBody}
		}
		c.frames <- f
		if f.last {
			return false
		}
	}
}

// answer serves each frame handed to it and writes its reply frame, until
// the reader ends.
func (c *hopConn) answer() {
	defer close(c.done)
	for f := range c.frames {
		call := f.c
		c.p.predict(c.ctx, call, f.budgetMs, f.parent, nil)
		var retryAfter uint64
		if call.ans.RetryAfter != "" {
			retryAfter, _ = strconv.ParseUint(call.ans.RetryAfter, 10, 32)
		}
		b := call.out.b
		PutHopReply(b, call.ans.Status, uint32(retryAfter), uint32(len(b)-HopReplyHead))
		c.conn.SetWriteDeadline(time.Now().Add(hopWriteTimeout))
		_, err := c.conn.Write(b)
		call.release()
		// The idle clock starts again once the reply is out.
		c.conn.SetReadDeadline(time.Now().Add(c.p.svc.hops.idleBound))
		if !c.end() || err != nil {
			c.conn.Close() // ends the reader
		}
	}
}

// begin counts a frame whose head has come in, unless the connection is
// closing: then the frame goes unanswered and the router replays it.
func (c *hopConn) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing {
		return false
	}
	c.inFlight++
	return true
}

// end counts a frame answered, and says whether the connection stays open.
func (c *hopConn) end() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight--
	return !c.closing || c.inFlight > 0
}

// drain closes c at once if no frame is in flight, else once the last is
// answered (end).
func (c *hopConn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	if c.inFlight == 0 {
		c.conn.Close()
	}
}

// hopSet is a Service's hop connections, for Close to drain.
type hopSet struct {
	mu     sync.Mutex
	closed bool
	conns  map[*hopConn]struct{}
	wg     sync.WaitGroup
	// frameBound is hopFrameTimeout and idleBound hopIdleTimeout, fields so
	// that a test can wait out shorter ones.
	frameBound, idleBound time.Duration
}

// add registers c, unless the set is closed.
func (s *hopSet) add(c *hopConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*hopConn]struct{})
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

// remove forgets c once it has ended.
func (s *hopSet) remove(c *hopConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// close refuses new hop connections, lets each frame in flight be answered,
// closes every connection and returns once all have ended.
func (s *hopSet) close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.drain()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

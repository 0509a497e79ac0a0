package fleet

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// Remote is the replica backend of one ioserve process reached over the
// network. Predict hops go over connections upgraded once at GET /v1/hop
// (serve/hop.go): each call is one request frame, whose head carries the
// remaining context deadline as a budget (the replica drops expired requests
// itself instead of computing answers nobody will read) and the TraceParent
// (the replica records it as its trace parent), and one reply frame. Health,
// Metrics and FetchTrace are plain HTTP/1.1 GETs on keep-alive connections
// of their own: the request written whole, the reply's head read by
// readHead, which keeps net/http's ReadResponse rules for the status,
// framing, closing and Retry-After it reads and builds nothing else, and the
// body by its framing. No redirect is followed. Every call has a goroutine
// that ends it when the caller's context does.
type Remote struct {
	name    string
	baseURL string
	// hopBound is hopTimeout and idleBound idleTimeout, fields so that a test
	// can wait out shorter ones.
	hopBound, idleBound time.Duration
	// The connections predict hops were handed: fresh from a dial, or idle.
	dialled, reused atomic.Uint64
	// adminToken unlocks the replica's admin-gated trace endpoints when the
	// fleet runs with admin authn. Empty is fine: FetchTrace then degrades
	// to a missing hop rather than failing the stitch.
	adminToken string

	// What baseURL says, worked out once: the address to dial, the Host
	// header, the path every endpoint is appended to, the Authorization value
	// of a base URL with userinfo, and for https the TLS client config.
	// parseErr is why baseURL says none of it: every call then fails with it,
	// NewRemote having no error to return.
	addr, host, prefix, auth string
	tlsConf                  *tls.Config
	parseErr                 error

	// upgrade is the request that opens a hop connection.
	upgrade []byte
	// hops pools the upgraded predict connections, gets the plain ones.
	hops, gets connPool
}

// connPool is a Remote's pool of idle connections of one kind.
type connPool struct {
	mu sync.Mutex
	// idle is last in first out, so idle[0] has waited longest; pruner closes
	// what has waited idleBound, and is armed whenever idle is not empty.
	idle   []*hopConn
	pruner *time.Timer
}

// RemoteConfig tunes a Remote backend.
type RemoteConfig struct {
	// AdminToken authorizes the replica's admin-gated stats endpoints.
	AdminToken string
}

const (
	// hopTimeout bounds one call on a replica, dial, request and reply, so
	// that one that accepts and never answers cannot hold a deadline-free
	// request for good.
	hopTimeout = 10 * time.Second
	// idleTimeout is how long a pooled connection may wait for its next call.
	idleTimeout = 90 * time.Second
	// maxReplyHeader bounds what a reply's status line and headers may take.
	maxReplyHeader = 1 << 20
)

// errHopTimeout is how a call that hopTimeout ended fails. It is no
// context.DeadlineExceeded: the router books that as the client's clock running
// out, and this is the replica's fault. A caller's deadline that comes first
// ends the call with the caller's cause.
var errHopTimeout = errors.New("no answer within the hop's own bound")

// NewRemote wraps an ioserve base URL (e.g. "http://10.0.0.7:8080") as a
// replica backend.
func NewRemote(name, baseURL string, cfg RemoteConfig) *Remote {
	r := &Remote{name: name, baseURL: baseURL, hopBound: hopTimeout, idleBound: idleTimeout, adminToken: cfg.AdminToken}
	for _, p := range []*connPool{&r.hops, &r.gets} {
		p.pruner = time.AfterFunc(idleTimeout, func() { r.closeIdle(p, time.Now().Add(-r.idleBound)) })
		p.pruner.Stop()
	}
	base, err := url.Parse(baseURL)
	if err == nil && (base.Scheme != "http" && base.Scheme != "https" || base.Hostname() == "") {
		err = errors.New("not an http:// or https:// URL with a host")
	}
	if uerr := (*url.Error)(nil); errors.As(err, &uerr) {
		err = uerr.Err // each call names the URL it asked for
	}
	if r.parseErr = err; err != nil {
		return r
	}
	r.host, r.prefix = strings.TrimSuffix(base.Host, ":"), base.EscapedPath()
	r.addr = net.JoinHostPort(base.Hostname(), cmp.Or(base.Port(), map[string]string{"http": "80", "https": "443"}[base.Scheme]))
	if base.Scheme == "https" {
		r.tlsConf = &tls.Config{ServerName: base.Hostname(), NextProtos: []string{"http/1.1"}}
	}
	if u := base.User; u != nil {
		pass, _ := u.Password()
		r.auth = "Basic " + base64.StdEncoding.EncodeToString([]byte(u.Username()+":"+pass))
	}
	r.upgrade = append(r.appendHead(nil, http.MethodGet, serve.HopPath, -1), "Connection: Upgrade\r\nUpgrade: "+serve.HopProtocol+"\r\n\r\n"...)
	return r
}

// Name implements Predictor.
func (r *Remote) Name() string { return r.name }

// maxReplicaReply bounds one replica reply. A guarded prediction is about
// 250 bytes of JSON, so a reply outgrows its request only when rows are
// narrower than ~20 features; four request bounds leaves real schemas
// (theta 101 features, cori 138) an order of magnitude of room.
const maxReplicaReply = 4 * maxRouterBody

// hopBody is the storage of one call: the request as it goes on the wire (a
// predict's frame; a GET's request line and headers), the reply's head and
// body. A call returns only once its write has ended, so a predict hop's is
// pooled.
type hopBody struct {
	req   []byte // the request frame, or request line and headers
	head  [serve.HopReplyHead]byte
	reply []byte // the reply's body; the decoder copies out of it
	// While reply is read: bound over the body, and framed over the
	// connection, at the body's length.
	bound, framed io.LimitedReader
	// The connections the call was handed: fresh from a dial, or pooled.
	dialled, reused uint64
}

// maxPooledHop is the most storage (bytes) a hop may take back to the pool.
const maxPooledHop = 1 << 20

var hopPool = sync.Pool{New: func() any { return new(hopBody) }}

// appendHead appends the request line and the headers every call sends, as
// net/http's client writes them when User-Agent is empty: Host,
// Content-Length (a body of n bytes; none when n < 0), Authorization. The
// caller appends the rest, in key order, and the blank line.
func (r *Remote) appendHead(b []byte, method, path string, n int) []byte {
	b = append(append(append(append(append(b, method...), ' '), r.prefix...), path...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, r.host...), "\r\n"...)
	if n >= 0 {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10), "\r\n"...)
	}
	if r.auth != "" {
		b = append(append(append(b, "Authorization: "...), r.auth...), "\r\n"...)
	}
	return b
}

// Predict implements Predictor over a hop frame, both directions through the
// shared wire codec (serve/codec.go), the reply decoded into out.
func (r *Remote) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	// The client's deadline minus the router time already spent is the
	// replica's whole budget. A budget already spent fails fast here —
	// sending the request would only have the replica compute an answer
	// nobody can read, and the wrapped DeadlineExceeded keeps the router from
	// counting the client's expired budget against this replica's breaker.
	budgetMs, bounded := remainingBudgetMs(ctx, time.Now())
	if bounded && budgetMs <= 0 {
		return fmt.Errorf("fleet: replica %s: request budget exhausted before dispatch: %w",
			r.name, context.DeadlineExceeded)
	}
	h := hopPool.Get().(*hopBody)
	defer func() {
		if cap(h.req)+cap(h.reply) <= maxPooledHop {
			hopPool.Put(h)
		}
	}()
	var err error
	if h.req, err = serve.AppendHopRequest(h.req[:0], req, uint32(min(budgetMs, math.MaxUint32))); err != nil {
		return fmt.Errorf("fleet: encoding request for %s: %w", r.name, err)
	}
	h.dialled, h.reused = 0, 0
	err = r.roundTrip(ctx, h, &r.hops, serve.HopPath, maxReplicaReply)
	r.dialled.Add(h.dialled)
	r.reused.Add(h.reused)
	if err != nil {
		return err
	}
	out.System = req.System // a reply that names it shares this string
	if err := serve.DecodePredictReply(h.reply, out); err != nil {
		return fmt.Errorf("fleet: replica %s sent a bad response body: %w", r.name, err)
	}
	return nil
}

// hopConn is one pooled connection. Its reads go through in, whose N is
// what the reply being read may still take off the wire, which also says
// whether the replica has answered anything at all.
type hopConn struct {
	net.Conn
	in     io.LimitedReader     // over Conn
	br     *bufio.Reader        // over in
	watch  chan context.Context // to watchCancel: a call's context, then any value back; nil ends it
	idleAt time.Time            // when it was last pooled
	// upgraded is set once the replica has answered the hop upgrade.
	upgraded bool
}

// watchCancel, started at dial, is c's watcher: it moves c's deadline into
// the past if the context of the call holding c ends before it is taken back.
func (c *hopConn) watchCancel() {
	for ctx := <-c.watch; ctx != nil; ctx = <-c.watch {
		select {
		case <-ctx.Done():
			c.SetDeadline(time.Unix(1, 0))
			<-c.watch
		case <-c.watch:
		}
	}
}

// Close closes c and returns once its watcher has ended; no call may hold c.
func (c *hopConn) Close() error {
	defer func() { c.watch <- nil }()
	return c.Conn.Close()
}

// roundTrip sends h.req, a call to path, on a connection of p, pooled or new,
// and reads the reply into h.reply: the body of a 200, or a *BackendError for
// any other status (and for a body of more than limit bytes). It ends at the
// caller's deadline or hopBound, whichever comes first, or when ctx is done.
func (r *Remote) roundTrip(ctx context.Context, h *hopBody, p *connPool, path string, limit int64) error {
	if r.parseErr != nil {
		return &url.Error{Op: "parse", URL: r.baseURL + path, Err: r.parseErr}
	}
	deadline, own := time.Now().Add(r.hopBound), true
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline, own = dl, false
	}
	for fresh := false; ; fresh = true {
		c, reused, err := r.conn(ctx, p, deadline, fresh)
		if err != nil {
			return fmt.Errorf("fleet: replica %s %s: %w", r.name, path, hopError(ctx, own, err))
		}
		if reused {
			h.reused++
		} else {
			h.dialled++
		}
		c.SetDeadline(deadline) // before the watch, which must win
		c.watch <- ctx
		var keep bool
		if p == &r.hops {
			keep, err = c.exchangeFrame(r.upgrade, h, limit)
		} else {
			keep, err = c.exchange(h, limit)
		}
		c.watch <- ctx // taken back; a context that has ended may have ended the exchange
		if keep && ctx.Err() == nil {
			r.put(p, c)
		} else {
			c.Close()
		}
		if _, answered := err.(*BackendError); err == nil || answered {
			return err
		}
		// A connection the replica closed while it sat idle answers nothing,
		// and those that have sat longer are as likely gone (a restarted
		// replica closed them all): they are closed, and the request goes once
		// more, on a new connection.
		if !reused || c.in.N != limit+maxReplyHeader || ctx.Err() != nil || !time.Now().Before(deadline) {
			return fmt.Errorf("fleet: replica %s %s: %w", r.name, path, hopError(ctx, own, err))
		}
		r.closeIdle(p, c.idleAt)
	}
}

// exchangeFrame writes the request frame h.req on c, after the upgrade request
// when c is new, and reads the reply frame, its body into h.reply (at most
// limit bytes of a 200's; a longer body is a *BackendError, as is any other
// status). keep says whether c is ready for another call: the write whole and
// nothing left to read.
func (c *hopConn) exchangeFrame(upgrade []byte, h *hopBody, limit int64) (keep bool, err error) {
	c.in.N = limit + maxReplyHeader
	if !c.upgraded {
		// The first frame follows the upgrade at once: the replica reads it
		// once it has answered 101.
		if _, err := c.Write(upgrade); err != nil {
			return false, err
		}
	}
	_, werr := c.Write(h.req)
	// A replica that sheds may answer, and close, before it has read the
	// whole frame: its answer stands, not the write that then broke.
	if !c.upgraded {
		if err := readUpgrade(c.br); err != nil {
			return false, cmp.Or(werr, err)
		}
		c.upgraded = true
	}
	if _, err := io.ReadFull(c.br, h.head[:]); err != nil {
		return false, cmp.Or(werr, err)
	}
	status, retryAfter, n := serve.ParseHopReply(h.head[:])
	switch {
	case status < 200 || status > 599:
		return false, fmt.Errorf("replica answered with status %d", status)
	case int64(n) > limit:
		// 5xx, so it counts against the replica's breaker like any fault.
		return false, &BackendError{Status: http.StatusBadGateway, Msg: fmt.Sprintf("reply exceeds %d bytes", limit)}
	}
	h.framed = io.LimitedReader{R: c.br, N: int64(n)}
	h.reply, err = serve.ReadBody(h.reply[:0], &h.framed, int64(n))
	if h.framed.R = nil; err == nil && h.framed.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return false, fmt.Errorf("reading the reply body: %w", err)
	}
	keep = werr == nil && c.br.Buffered() == 0
	if status != http.StatusOK {
		ra := ""
		if retryAfter != 0 {
			ra = strconv.FormatUint(uint64(retryAfter), 10)
		}
		return keep, backendError(status, ra, h.reply[:min(len(h.reply), 4<<10)])
	}
	return keep, nil
}

// readUpgrade reads the replica's answer to the hop upgrade off br: a 101
// that names the hop protocol, or an error.
func readUpgrade(br *bufio.Reader) error {
	line, err := headLine(br)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 101 ")) {
		return fmt.Errorf("replica refused the hop upgrade: %q", line)
	}
	upgraded := false
	for {
		if line, err = headLine(br); err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		key, v, _ := bytes.Cut(line, []byte(":"))
		upgraded = upgraded || equalFold(key, "Upgrade") && equalFold(bytes.TrimSpace(v), serve.HopProtocol)
	}
	if !upgraded {
		return errors.New("replica switched to a protocol other than " + serve.HopProtocol)
	}
	return nil
}

// exchange writes h.req on c and reads the reply, its body into h.reply (at
// most limit bytes of a 200's, 4 KB of any other's, which is a
// *BackendError). keep says whether c is ready for another call: the reply
// read to its end, nothing after it, and no word that the replica will close.
func (c *hopConn) exchange(h *hopBody, limit int64) (keep bool, err error) {
	c.in.N = limit + maxReplyHeader
	_, werr := c.Write(h.req)
	// A replica that sheds may answer, and close, before it has read the
	// whole body: its answer stands, not the write that then broke.
	var head replyHead
	if err := readHead(c.br, &head); err != nil {
		return false, cmp.Or(werr, err)
	}
	if head.status != http.StatusOK {
		limit = 4 << 10
	}
	if err := h.readBody(c.br, &head, limit); err != nil {
		return false, fmt.Errorf("reading the reply body: %w", err)
	}
	keep = h.bound.N > 0 && werr == nil && !head.close && c.br.Buffered() == 0
	switch {
	case head.status != http.StatusOK:
		return keep, backendError(head.status, head.retryAfter, h.reply[:min(int64(len(h.reply)), limit)])
	case h.bound.N == 0:
		// 5xx, so it counts against the replica's breaker like any fault.
		return false, &BackendError{Status: http.StatusBadGateway, Msg: fmt.Sprintf("reply exceeds %d bytes", limit)}
	}
	return keep, nil
}

// readBody reads the body head frames off br into h.reply, stopping past
// limit bytes with h.bound.N at 0. A chunked body's trailer is read and
// dropped; a body short of its Content-Length is io.ErrUnexpectedEOF.
func (h *hopBody) readBody(br *bufio.Reader, head *replyHead, limit int64) error {
	h.framed = io.LimitedReader{R: br, N: head.length}
	var body io.Reader = &h.framed
	switch {
	case head.chunked:
		body = httputil.NewChunkedReader(br)
	case head.length < 0:
		body = br
	}
	h.bound = io.LimitedReader{R: body, N: limit + 1}
	var err error
	h.reply, err = serve.ReadBody(h.reply[:0], &h.bound, head.length)
	h.bound.R, h.framed.R = nil, nil
	switch {
	case err != nil || h.bound.N == 0:
		return err
	case h.framed.N > 0:
		return io.ErrUnexpectedEOF
	}
	for head.chunked { // the trailer, to its blank line
		if line, err := headLine(br); err != nil || len(line) == 0 {
			return err
		}
	}
	return nil
}

// replyHead is what a hop reads of a reply's status line and headers.
type replyHead struct {
	status     int
	length     int64 // of the body; -1 when chunked or read to the close
	chunked    bool
	close      bool // the replica closes the connection after this reply
	retryAfter string
}

// What readHead refuses and ReadResponse reads. ioserve sends neither, and
// FuzzReplyHead holds that there is no other difference.
var (
	errLongHeadLine = errors.New("a reply head line outgrows the read buffer")
	errFoldedHeader = errors.New("a reply header is folded onto a second line")
)

// readHead reads a reply's status line and headers off br into h by the rules
// net/http's ReadResponse keeps for what h holds, and refuses a status
// outside 200–599. It allocates only for a Retry-After value and on failure.
func readHead(br *bufio.Reader, h *replyHead) error {
	line, err := headLine(br)
	if err != nil {
		return err
	}
	proto, status, ok := bytes.Cut(line, []byte(" "))
	status = bytes.TrimLeft(status, " ")
	code, _, _ := bytes.Cut(status, []byte(" "))
	major, minor, okProto := http.ParseHTTPVersion(string(proto))
	h.status, err = strconv.Atoi(string(code))
	switch {
	case !ok || len(code) != 3 || err != nil || !okProto:
		return fmt.Errorf("malformed reply status line %q", line)
	case h.status < 200 || h.status > 599:
		return fmt.Errorf("replica answered with status %q", status)
	}
	var lengths, digits, encodings int
	var chunked, closing, keepAlive, sawRetryAfter, badTrailer bool
	for {
		if line, err = headLine(br); err != nil || len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return errFoldedHeader
		}
		key, v, ok := bytes.Cut(bytes.TrimRight(line, " \t"), []byte(":"))
		if !ok || !validHeader(key, v) {
			return fmt.Errorf("malformed reply header line %q", line)
		}
		switch v = bytes.TrimLeft(v, " \t"); {
		case equalFold(key, "Content-Length"):
			// Digit strings of one length are one number only if they are
			// one string, which ReadResponse asks of repeated values.
			n, err := strconv.ParseUint(string(v), 10, 63)
			if err != nil || lengths > 0 && (int64(n) != h.length || len(v) != digits) {
				return fmt.Errorf("malformed or differing reply Content-Length %q", v)
			}
			lengths, digits, h.length = lengths+1, len(v), int64(n)
		case equalFold(key, "Transfer-Encoding"):
			encodings, chunked = encodings+1, equalFold(v, "chunked")
		case equalFold(key, "Connection"):
			closing, keepAlive = closing || hasToken(v, "close"), keepAlive || hasToken(v, "keep-alive")
		case equalFold(key, "Retry-After") && !sawRetryAfter:
			h.retryAfter, sawRetryAfter = string(v), true
		case equalFold(key, "Trailer"):
			badTrailer = badTrailer || hasToken(v, "Content-Length") || hasToken(v, "Transfer-Encoding") || hasToken(v, "Trailer")
		}
	}
	// Transfer-Encoding counts from HTTP/1.1 on, and net/http takes HTTP/0.0
	// for HTTP/1.1 there.
	h.chunked = encodings > 0 && (major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0)
	switch {
	case err != nil:
		return err
	case h.chunked && (encodings != 1 || !chunked):
		return errors.New("reply has a transfer coding other than chunked")
	case h.chunked && badTrailer:
		return errors.New("reply declares a framing header as a trailer")
	case h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		h.length, h.chunked = 0, false
	case h.chunked || lengths == 0:
		h.length = -1
	}
	h.close = major < 1 || closing || major == 1 && minor == 0 && !keepAlive || h.length < 0 && !h.chunked
	return nil
}

// headLine is the next line of a reply's head without its line end: a view
// of br's buffer that the next read overwrites.
func headLine(br *bufio.Reader) ([]byte, error) {
	switch line, err := br.ReadSlice('\n'); err {
	case nil:
		return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
	case bufio.ErrBufferFull:
		return nil, errLongHeadLine
	case io.EOF:
		return nil, io.ErrUnexpectedEOF
	default:
		return nil, err
	}
}

// validHeader keeps net/textproto's rules: a name of token characters or
// spaces (a space makes a name nothing matches), a value with no control
// characters.
func validHeader(key, v []byte) bool {
	for _, c := range key {
		if !('a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte(" !#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(key) > 0 && !bytes.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f })
}

// hasToken says whether the comma-separated list v holds token.
func hasToken(v []byte, token string) bool {
	for elem := range bytes.SplitSeq(v, []byte(",")) {
		if equalFold(bytes.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// equalFold is net/http's ASCII case folding: a string folds onto an ASCII
// one of its length only if it is ASCII too.
func equalFold(b []byte, s string) bool { return len(b) == len(s) && bytes.EqualFold(b, []byte(s)) }

// hopError is the error a call that failed with err returns: the caller's
// own when its context has ended, context.DeadlineExceeded when its deadline
// was the connection's, errHopTimeout when the hop's bound was.
func hopError(ctx context.Context, own bool, err error) error {
	var ne net.Error
	switch {
	case ctx.Err() != nil:
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	case !errors.As(err, &ne) || !ne.Timeout():
		return err
	case own:
		return fmt.Errorf("%w (%v)", errHopTimeout, err)
	}
	return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
}

// conn is p's most recently pooled connection, or if there is none or fresh
// is set, a new one dialled by deadline.
func (r *Remote) conn(ctx context.Context, p *connPool, deadline time.Time, fresh bool) (*hopConn, bool, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 && !fresh {
		c := p.idle[n-1]
		p.idle = slices.Delete(p.idle, n-1, n)
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, false, err
	}
	if r.tlsConf != nil {
		nc = tls.Client(nc, r.tlsConf)
	}
	c := &hopConn{Conn: nc, in: io.LimitedReader{R: nc}, watch: make(chan context.Context)}
	c.br = bufio.NewReader(&c.in)
	go c.watchCancel()
	return c, false, nil
}

// put pools c in p for the next call.
func (r *Remote) put(p *connPool, c *hopConn) {
	c.idleAt = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == 0 {
		p.pruner.Reset(r.idleBound)
	}
	p.idle = append(p.idle, c)
}

// closeIdle closes p's connections that have been idle since cutoff or
// before, and arms p's pruner for the next to get to idleBound.
func (r *Remote) closeIdle(p *connPool, cutoff time.Time) {
	p.mu.Lock()
	n := 0
	for n < len(p.idle) && !p.idle[n].idleAt.After(cutoff) {
		n++
	}
	expired := slices.Clone(p.idle[:n])
	p.idle = slices.Delete(p.idle, 0, n)
	if len(p.idle) > 0 {
		p.pruner.Reset(time.Until(p.idle[0].idleAt.Add(r.idleBound)))
	}
	p.mu.Unlock()
	for _, c := range expired {
		c.Close()
	}
}

// CloseIdleConnections closes the replica connections no call is using; the
// router calls it when the replica leaves the fleet and when it stops.
func (r *Remote) CloseIdleConnections() {
	now := time.Now()
	r.closeIdle(&r.hops, now)
	r.closeIdle(&r.gets, now)
}

// backendError converts a non-200 replica reply, preserving the status and
// any Retry-After advice.
func backendError(status int, retryAfter string, body []byte) *BackendError {
	msg := "(no body)"
	if len(body) > 0 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		} else {
			msg = string(body)
		}
	}
	return &BackendError{Status: status, RetryAfter: retryAfter, Msg: msg}
}

// Health implements Predictor over GET /healthz.
func (r *Remote) Health(ctx context.Context) error {
	_, err := r.get(ctx, "/healthz", false, 4<<10)
	return err
}

// remainingBudgetMs converts the context deadline into the milliseconds of
// budget left as of now (false when the context carries no deadline). The
// subtraction of elapsed router time happens implicitly: the handler set
// the deadline when the request arrived, so time.Until at dispatch is the
// client's budget minus everything the router already spent.
func remainingBudgetMs(ctx context.Context, now time.Time) (int64, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	// Rounded up: a budget of under a millisecond is one, not none, and only
	// a deadline that has passed is at most 0.
	return int64((dl.Sub(now) + time.Millisecond - 1) / time.Millisecond), true
}

// maxMetricsBody bounds one replica metrics scrape.
const maxMetricsBody = 4 << 20

// Metrics implements Predictor over GET /metrics: one plain scrape of the
// replica's whole exposition, parsed back into families — the one place
// metric text crosses a process boundary.
func (r *Remote) Metrics(ctx context.Context) ([]obs.PromFamily, error) {
	body, err := r.get(ctx, "/metrics", false, maxMetricsBody)
	if err != nil {
		return nil, err
	}
	return obs.ParsePromText(body)
}

// FetchTrace implements Predictor over the replica's admin-gated
// GET /v1/trace/{id}. 404 (not retained / evicted) and 409 (tracing
// disabled on the replica) both mean the trace is unavailable, not that
// the replica failed.
func (r *Remote) FetchTrace(ctx context.Context, id uint64) (*obs.TraceDetail, error) {
	body, err := r.get(ctx, "/v1/trace/"+obs.FormatTraceID(id), true, maxMetricsBody)
	if err != nil {
		var be *BackendError
		if errors.As(err, &be) && (be.Status == http.StatusNotFound || be.Status == http.StatusConflict) {
			return nil, ErrTraceNotFound
		}
		return nil, err
	}
	var detail obs.TraceDetail
	if err := json.Unmarshal(body, &detail); err != nil {
		return nil, fmt.Errorf("fleet: replica %s sent a bad trace: %w", r.name, err)
	}
	return &detail, nil
}

// get is one GET of the replica under the hop's bound: the body of a 200, at
// most limit bytes of it, or a *BackendError for any other status.
func (r *Remote) get(ctx context.Context, path string, admin bool, limit int64) ([]byte, error) {
	h := &hopBody{req: r.appendHead(nil, http.MethodGet, path, -1)}
	if admin && r.adminToken != "" {
		h.req = append(append(append(h.req, "X-Admin-Token: "...), r.adminToken...), "\r\n"...)
	}
	h.req = append(h.req, "\r\n"...)
	err := r.roundTrip(ctx, h, &r.gets, path, limit)
	return h.reply, err
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// Remote is the HTTP replica backend: one ioserve process addressed over
// the existing serving surface. The router's trace ID travels on
// X-Trace-Id (the replica records it as its trace parent) and the
// remaining context deadline on X-Request-Timeout-Ms (the replica drops
// expired waves itself instead of computing answers nobody will read).
type Remote struct {
	name    string
	baseURL string
	// transport carries every call, one RoundTrip each: the configured one, or
	// this Remote's own (newHopTransport). hopBound is hopTimeout, a field so
	// that a test can wait out a shorter one.
	transport http.RoundTripper
	hopBound  time.Duration
	// The connections predict hops were handed: fresh from a dial, or idle.
	dialled, reused atomic.Uint64
	// adminToken unlocks the replica's admin-gated trace endpoints when the
	// fleet runs with admin authn. Empty is fine: FetchTrace then degrades
	// to a missing hop rather than failing the stitch.
	adminToken string

	// base is baseURL parsed once, and parseErr why it could not be: every
	// call then fails with it, NewRemote having no error to return. The three
	// fixed endpoints are derived once too and shared by all their requests.
	base                     *url.URL
	parseErr                 error
	predict, health, metrics endpoint
	// basicAuth is the Authorization value of a base URL with userinfo, which
	// net/http's client derived per request and a bare transport does not.
	basicAuth []string
}

// endpoint is one path of the replica's surface and, when the base URL
// parsed, its URL.
type endpoint struct {
	path string
	url  *url.URL
}

// RemoteConfig tunes a Remote backend.
type RemoteConfig struct {
	// Transport carries every call to the replica, one RoundTrip each (no
	// redirects followed, no cookies). Nil is a transport of the Remote's own,
	// made for the router→replica hop; one that is not net/http's HTTP/1
	// transport costs each hop its pooled buffer (see hopBody).
	Transport http.RoundTripper
	// AdminToken authorizes the replica's admin-gated stats endpoints.
	AdminToken string
}

// hopTimeout bounds one call on a replica, headers and body, so that one that
// accepts and never answers cannot hold a deadline-free request for good.
const hopTimeout = 10 * time.Second

// errHopTimeout is the cause of a context that hopTimeout ended, which is what
// net/http then fails the round trip or the body read with. It is no
// context.DeadlineExceeded: the router books that as the client's clock running
// out, and this is the replica's fault. A caller's deadline that comes first
// ends the hop with the caller's cause.
var errHopTimeout = errors.New("no answer within the hop's own bound")

// newHopTransport is the transport of a Remote that was given none: HTTP/1.1
// only (the hopBody recycle rule reads HTTP/1 trace events), no proxy lookup,
// no gzip negotiation, a write buffer that takes a 16-row hop body whole (what
// does not fit, net/http copies through a buffer it allocates per request),
// and an idle pool that is never the cap: every concurrent hop keeps its
// connection (http.DefaultTransport's two a host had most hops past two
// callers a replica dial) and IdleConnTimeout alone shrinks the pool.
func newHopTransport() *http.Transport {
	var h1 http.Protocols
	h1.SetHTTP1(true)
	return &http.Transport{
		Protocols:           &h1,
		DisableCompression:  true,
		WriteBufferSize:     16 << 10,
		MaxIdleConnsPerHost: 1 << 14,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NewRemote wraps an ioserve base URL (e.g. "http://10.0.0.7:8080") as a
// replica backend.
func NewRemote(name, baseURL string, cfg RemoteConfig) *Remote {
	r := &Remote{name: name, baseURL: baseURL, transport: cfg.Transport, hopBound: hopTimeout, adminToken: cfg.AdminToken}
	if r.transport == nil {
		r.transport = newHopTransport()
	}
	base, err := url.Parse(baseURL)
	if err != nil {
		// Keep the cause; newRequest names the URL each call asked for.
		var uerr *url.Error
		if errors.As(err, &uerr) {
			err = uerr.Err
		}
		r.parseErr = err
	} else {
		base.Host = strings.TrimSuffix(base.Host, ":") // http.NewRequest drops an empty port too
		r.base = base
		if u := base.User; u != nil {
			pass, _ := u.Password()
			auth := http.Request{Header: make(http.Header, 1)}
			auth.SetBasicAuth(u.Username(), pass)
			r.basicAuth = auth.Header["Authorization"]
		}
	}
	r.predict, r.health, r.metrics = r.endpoint("/v1/predict"), r.endpoint("/healthz"), r.endpoint("/metrics")
	return r
}

// endpoint is path appended to the base URL's path.
func (r *Remote) endpoint(path string) endpoint {
	if r.base == nil {
		return endpoint{path: path}
	}
	u := *r.base
	u.Path, u.RawPath = u.Path+path, ""
	return endpoint{path, &u}
}

// newRequest is http.NewRequestWithContext(ctx, method, baseURL+path, nil)
// over that URL already parsed, which the request shares rather than copies:
// nothing in net/http writes to a request's URL. A base URL that did not
// parse fails here as the per-call parse used to.
func (r *Remote) newRequest(ctx context.Context, method string, ep endpoint) (*http.Request, error) {
	if r.parseErr != nil {
		return nil, &url.Error{Op: "parse", URL: r.baseURL + ep.path, Err: r.parseErr}
	}
	req := http.Request{Method: method, URL: ep.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 3), Host: ep.url.Host}
	if r.basicAuth != nil {
		req.Header["Authorization"] = r.basicAuth
	}
	return req.WithContext(ctx), nil
}

// CloseIdleConnections closes the replica connections no call is using; the
// router calls it when the replica leaves the fleet and when it stops.
func (r *Remote) CloseIdleConnections() {
	if tr, ok := r.transport.(interface{ CloseIdleConnections() }); ok {
		tr.CloseIdleConnections()
	}
}

// Name implements Predictor.
func (r *Remote) Name() string { return r.name }

// maxReplicaReply bounds one replica reply. A guarded prediction is about
// 250 bytes of JSON, so a reply outgrows its request only when rows are
// narrower than ~20 features; four request bounds leaves real schemas
// (theta 101 features, cori 138) an order of magnitude of room.
const maxReplicaReply = 4 * maxRouterBody

// hopBody is the pooled storage of one hop: the encoded request, the reply,
// and the means of learning when net/http has finished with the former. The
// transport may still be writing a request body after RoundTrip has returned (a
// replica that sheds answers before it has read the body; RoundTripper allows
// it of any implementation), and it must be handed a plain
// io.NopCloser(*bytes.Reader): any type of ours, say one whose Close reports
// back, is not an in-memory reader net/http knows, which makes it flush the
// headers on their own (one more write and segment a hop) and copy the body
// through a buffer it allocates (Go issue 22088). So the lifetime is learned
// from a client trace instead: see release.
type hopBody struct {
	buf    []byte           // the request body
	reply  []byte           // the replica's answer; the decoder copies out of it
	bound  io.LimitedReader // over the response body while reply is read
	reader bytes.Reader     // over buf, for the first attempt
	body   io.ReadCloser    // io.NopCloser(&reader), boxed once
	// getBody is the request's GetBody: a second reader over buf, for a retry
	// that may overlap the failed attempt's last read of the first.
	getBody func() (io.ReadCloser, error)
	// conns counts the connections the request was handed to (a stale
	// keep-alive connection is retried on a second one), reused those that
	// had been idle, written those that have reported their write of it
	// over, failed or not.
	conns, reused, written atomic.Int32
	trace                  httptrace.ClientTrace
}

// maxPooledHop is the most storage (bytes) a hop may take back to the pool.
const maxPooledHop = 1 << 20

var hopPool = sync.Pool{New: func() any {
	h := new(hopBody)
	h.body = io.NopCloser(&h.reader)
	h.getBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(h.buf)), nil }
	h.trace = httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			h.conns.Add(1)
			if info.Reused {
				h.reused.Add(1)
			}
		},
		WroteRequest: func(httptrace.WroteRequestInfo) { h.written.Add(1) },
	}
	return h
}}

// release returns h to the pool if nothing can still be reading h.buf, and
// otherwise leaves it to the collector. It runs after RoundTrip has returned, when no
// further connection can be handed the request: if at least one was and every
// one that was has finished writing, no write is running or can start. Every
// other outcome — an early 429 with the write still under way, a dial the
// context cancelled, a caller's RoundTripper or client trace that keeps ours
// from firing, a request that never reached RoundTrip — fails the test and costs one
// allocation, never a torn body.
func (h *hopBody) release() {
	n := h.conns.Load()
	if n == 0 || h.written.Load() != n || cap(h.buf)+cap(h.reply) > maxPooledHop {
		return
	}
	h.conns.Store(0)
	h.reused.Store(0)
	h.written.Store(0)
	hopPool.Put(h)
}

// jsonContentType is every predict hop's Content-Type value: header values
// are read, never written, by net/http.
var jsonContentType = []string{"application/json"}

// Predict implements Predictor over POST /v1/predict, both directions
// through the shared wire codec (serve/codec.go).
func (r *Remote) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	// The client's deadline minus the router time already spent is the
	// replica's whole budget. An exhausted budget fails fast here — sending
	// the request would only have the replica compute an answer nobody can
	// read, and the wrapped DeadlineExceeded keeps the router from counting
	// the client's expired budget against this replica's breaker.
	budgetMs, bounded := remainingBudgetMs(ctx, time.Now())
	if bounded && budgetMs <= 0 {
		return nil, fmt.Errorf("fleet: replica %s: request budget exhausted before dispatch: %w",
			r.name, context.DeadlineExceeded)
	}
	h := hopPool.Get().(*hopBody)
	defer h.release()
	var err error
	if h.buf, err = serve.AppendPredictRequest(h.buf[:0], req); err != nil {
		return nil, fmt.Errorf("fleet: encoding request for %s: %w", r.name, err)
	}
	hctx, cancel := context.WithTimeoutCause(ctx, r.hopBound, errHopTimeout)
	defer cancel()
	// A trace the caller installed would be chained into ours for good by
	// WithClientTrace; theirs stays, and this hop's buffer is not recycled.
	tctx := hctx
	if httptrace.ContextClientTrace(ctx) == nil {
		tctx = httptrace.WithClientTrace(hctx, &h.trace)
	}
	httpReq, err := r.newRequest(tctx, http.MethodPost, r.predict)
	if err != nil {
		return nil, err
	}
	h.reader.Reset(h.buf)
	httpReq.Body, httpReq.GetBody, httpReq.ContentLength = h.body, h.getBody, int64(len(h.buf))
	httpReq.Header["Content-Type"] = jsonContentType
	if id := obs.TraceParent(ctx); id != 0 {
		httpReq.Header[serve.TraceHeader] = []string{obs.FormatTraceID(id)}
	}
	if bounded {
		httpReq.Header[serve.DeadlineHeader] = []string{strconv.FormatInt(budgetMs, 10)}
	}
	resp, err := r.transport.RoundTrip(httpReq)
	reused := uint64(h.reused.Load())
	r.reused.Add(reused)
	r.dialled.Add(uint64(h.conns.Load()) - reused)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", r.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, backendErrorFrom(resp)
	}
	h.bound = io.LimitedReader{R: resp.Body, N: maxReplicaReply + 1}
	h.reply, err = serve.ReadBody(h.reply[:0], &h.bound, resp.ContentLength)
	h.bound.R = nil
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: reading response body: %w", r.name, err)
	}
	if len(h.reply) > maxReplicaReply {
		// 5xx, so it counts against the replica's breaker like any fault.
		return nil, &BackendError{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("replica %s reply exceeds %d bytes", r.name, maxReplicaReply)}
	}
	out, err := serve.DecodePredictReply(h.reply, req.System)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s sent a bad response body: %w", r.name, err)
	}
	return out, nil
}

// backendErrorFrom converts a non-200 replica response, preserving the
// status and any Retry-After advice.
func backendErrorFrom(resp *http.Response) *BackendError {
	msg := "(no body)"
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<10)); err == nil && len(b) > 0 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			msg = e.Error
		} else {
			msg = string(b)
		}
	}
	return &BackendError{
		Status:     resp.StatusCode,
		RetryAfter: resp.Header.Get("Retry-After"),
		Msg:        msg,
	}
}

// Health implements Predictor over GET /healthz.
func (r *Remote) Health(ctx context.Context) error {
	_, err := r.get(ctx, r.health, false, 4<<10)
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
	return dl.Sub(now).Milliseconds(), true
}

// maxMetricsBody bounds one replica metrics scrape.
const maxMetricsBody = 4 << 20

// Metrics implements Predictor over GET /metrics: one plain scrape of the
// replica's whole exposition, parsed back into families — the one place
// metric text crosses a process boundary.
func (r *Remote) Metrics(ctx context.Context) ([]obs.PromFamily, error) {
	body, err := r.get(ctx, r.metrics, false, maxMetricsBody)
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
	body, err := r.get(ctx, r.endpoint("/v1/trace/"+obs.FormatTraceID(id)), true, maxMetricsBody)
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
// most limit bytes of it, or a wrapped *BackendError for any other status.
func (r *Remote) get(ctx context.Context, ep endpoint, admin bool, limit int64) ([]byte, error) {
	ctx, cancel := context.WithTimeoutCause(ctx, r.hopBound, errHopTimeout)
	defer cancel()
	req, err := r.newRequest(ctx, http.MethodGet, ep)
	if err != nil {
		return nil, err
	}
	if admin && r.adminToken != "" {
		req.Header["X-Admin-Token"] = []string{r.adminToken}
	}
	var body []byte
	resp, err := r.transport.RoundTrip(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = backendErrorFrom(resp)
		} else {
			body, err = io.ReadAll(io.LimitReader(resp.Body, limit))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s %s: %w", r.name, ep.path, err)
	}
	return body, nil
}

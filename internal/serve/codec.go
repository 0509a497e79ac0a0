package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// The predict wire codec shared by ioserve's POST /v1/predict, iorouter's,
// and the router→replica hop between them.
//
// Requests are read into a pooled byte buffer and parsed straight into a
// pooled flat []float64 block with the row headers sliced from it; replies
// are appended by hand into the call's own buffer and written with one
// Write. Every path is hand-written and held to encoding/json. The encoders
// (the predict reply, the hop's request) write the bytes encoding/json
// writes for the same value, trailing newline and errors included. The
// decoders accept only input they decode exactly as encoding/json would: the
// four exact keys once each, escape-free ASCII strings, plain number
// literals, and for a reply the shape encoding/json emits. Anything else —
// unknown, duplicate or case-folded keys, string escapes, null, a
// non-number token, reordered or spaced reply keys — is handed, from the
// same buffered bytes, to the encoding/json sequence the handlers ran before
// this codec existed, so statuses, error texts and edge semantics are that
// sequence's. One observable difference: the body is read
// to its end (or the bound) before parsing, where the streaming decoder
// stopped at the value's closing brace.
//
// A reply's throughput_bytes_per_sec and error_source are derived on the way
// out (PredictionResult.Throughput, Guard.ErrorSource) and checked, not kept,
// on the way in, so a router passes on what a replica's log10_throughput and
// ood imply.

// maxPooledCall is the most storage (bytes) a call may take back to the pool;
// a larger one is dropped: one 16 MiB request must not pin 16 MiB per P.
const maxPooledCall = 1 << 20

var callPool = sync.Pool{New: func() any { return new(predictCall) }}

// predictCall is the pooled storage behind one predict call, posted or
// framed, and its answer.
type predictCall struct {
	req     PredictRequest
	buf     []byte          // the request's bytes
	readErr error           // what ended the read of buf, if anything did
	reply   PredictResponse // the reply a replica serves into, results block and timings included
	out     replyBuf        // the answer's bytes: head bytes for the envelope's own use, then the body
	head    int             // how many bytes of out.b the envelope keeps ahead of the body
	ans     Answer
	block   []float64   // every row's values, back to back
	rows    [][]float64 // headers into block
	// system is the last system name decoded, reused while requests name
	// the same one.
	system string
	// traceHdr is the X-Trace-Id header value: net/http copies a handler's
	// header values when the header is written, before the call is released.
	traceHdr [1]string
}

// Answer is what a predict call answers besides its reply: the trace ID the
// server retained (the X-Trace-Id header), and when the call fails, the
// status, Retry-After and message its error is answered with.
type Answer struct {
	TraceID    string
	Status     int
	RetryAfter string
	Msg        string
}

// ServeFunc is the call a predict envelope makes once the request is
// decoded and its deadline set: it returns the reply to encode, or fails with
// the error it has put in a. req and its rows are on loan until it returns,
// and out, the call's own reply storage for ServeRequest to fill, until the
// envelope has written the answer.
type ServeFunc func(ctx context.Context, req *PredictRequest, out *PredictResponse, a *Answer) (JSONAppender, error)

// HandlePredictRequest is the envelope of iorouter's POST /v1/predict: read
// the body to the bound and answer what serveCall makes of it, under the
// tighter of defaultDeadline and the client's X-Request-Timeout-Ms. The error
// returned is the reply's own: a value JSON cannot carry, answered 500 here,
// for the caller to count; whatever the caller logs of the reply it reads
// inside serve.
func HandlePredictRequest(w http.ResponseWriter, r *http.Request, defaultDeadline time.Duration, serve ServeFunc) error {
	c := getCall(0)
	defer c.release()
	c.readHTTP(w, r)
	err := c.serveCall(r.Context(), defaultDeadline, headerBudget(r), serve)
	c.writeHTTP(w)
	return err
}

// getCall is a pooled call whose envelope keeps head bytes ahead of the body.
func getCall(head int) *predictCall {
	c := callPool.Get().(*predictCall)
	c.head, c.out.b = head, append(c.out.b[:0], make([]byte, head)...)
	return c
}

// readHTTP reads r's body into c.buf: net/http already cuts a body at a
// declared length, so only an unknown or oversized one needs the bound.
func (c *predictCall) readHTTP(w http.ResponseWriter, r *http.Request) {
	body := r.Body
	if r.ContentLength < 0 || r.ContentLength > maxRequestBody {
		body = http.MaxBytesReader(w, body, maxRequestBody)
	}
	c.buf, c.readErr = ReadBody(c.buf[:0], body, r.ContentLength)
	if c.readErr == nil {
		// Read to its end and closed, the body leaves net/http nothing to
		// discard after the handler.
		r.Body.Close()
	}
}

// headerBudget is r's X-Request-Timeout-Ms as serveCall takes a budget: -1
// when there is none, 0 when it is no positive integer.
func headerBudget(r *http.Request) int64 {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return -1
	}
	if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
		return ms
	}
	return 0
}

// serveCall is the predict call both envelopes make, once c.buf holds the
// body (c.readErr what ended its read): decode it, a bad request answered
// 400; bound ctx by the tighter of defaultDeadline and budgetMs (negative:
// none; 0: not a positive integer, answered 400) — the wait for an evaluation
// slot included, so an expired request is dropped before evaluation, not
// after; call serve; and encode what it returns. The answer is left in c for
// the envelope to write. The error returned is the reply's encoding error,
// answered 500.
func (c *predictCall) serveCall(ctx context.Context, defaultDeadline time.Duration, budgetMs int64, serve ServeFunc) error {
	if c.readErr != nil || !c.decodeRequest(c.buf) {
		c.req = PredictRequest{}
		if err := decodeRequestJSON(c.buf, c.readErr, &c.req); err != nil {
			c.fail(http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			return nil
		}
	}
	switch {
	case budgetMs == 0:
		c.fail(http.StatusBadRequest, fmt.Sprintf("%s must be a positive integer of milliseconds", DeadlineHeader))
		return nil
	case budgetMs > 0:
		// Clamped before it is converted: a product past MaxInt64 would
		// wrap, negative or short.
		if d := time.Duration(min(budgetMs, maxDeadlineMs)) * time.Millisecond; defaultDeadline == 0 || d < defaultDeadline {
			defaultDeadline = d
		}
	}
	if defaultDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, defaultDeadline)
		defer cancel()
	}
	reply, err := serve(ctx, &c.req, &c.reply, &c.ans)
	if err != nil {
		c.fail(c.ans.Status, c.ans.Msg)
		return nil
	}
	return c.encode(reply)
}

// encode makes reply c's answer, a 200, or when it does not encode, a 500
// with the uniform error body: a value JSON cannot carry (NaN, ±Inf) is found
// before any header goes out, instead of cutting a 200 short. That error is
// returned.
func (c *predictCall) encode(reply JSONAppender) (err error) {
	c.ans.Status = http.StatusOK
	if c.out.b, err = reply.AppendJSON(c.out.b[:c.head]); err != nil {
		err = notEncodable(err)
		c.fail(http.StatusInternalServerError, err.Error())
	}
	return err
}

// notEncodable is the error of a reply that did not encode.
func notEncodable(err error) error {
	return fmt.Errorf("serve: reply is not encodable (JSON cannot carry a non-finite number): %w", err)
}

// fail makes c's answer the uniform error body with status.
func (c *predictCall) fail(status int, msg string) {
	c.ans.Status = status
	c.out.b = c.out.b[:c.head]
	_ = json.NewEncoder(&c.out).Encode(errorBody{msg}) // a string always encodes
}

// writeHTTP writes c's answer as an HTTP reply.
func (c *predictCall) writeHTTP(w http.ResponseWriter) {
	h := w.Header()
	if c.ans.RetryAfter != "" {
		h.Set("Retry-After", c.ans.RetryAfter)
	}
	if c.ans.TraceID != "" {
		c.traceHdr[0] = c.ans.TraceID
		h[TraceHeader] = c.traceHdr[:]
	}
	flushReply(w, &c.out, c.ans.Status)
}

// maxDeadlineMs is the longest X-Request-Timeout-Ms a time.Duration holds.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// release returns the call to the pool, row block and reply storage
// included: nothing that read the rows outlives serve (the cache and the
// shadow mirror copy them, observers only read), the reply has been
// written, and ServeRequest overwrites all of it.
func (c *predictCall) release() {
	c.req, c.readErr, c.ans = PredictRequest{}, nil, Answer{}
	if cap(c.buf)+cap(c.out.b)+8*cap(c.block)+24*cap(c.rows)+int(unsafe.Sizeof(PredictionResult{}))*cap(c.reply.Predictions) <= maxPooledCall {
		callPool.Put(c)
	}
}

// ReadBody is io.ReadAll into a caller-owned buffer, sized up front from a
// declared length (negative when unknown) as far as a pooled buffer goes.
func ReadBody(buf []byte, r io.Reader, length int64) ([]byte, error) {
	if n := max(min(length+1, maxPooledCall), 512); n > int64(cap(buf)) {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader replays the error that ended a body read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRequestJSON is the pre-codec decode sequence over the bytes already
// read (and the error that ended the read, if one did): the fallback of the
// fast path and the oracle its fuzz target compares against.
func decodeRequestJSON(data []byte, readErr error, req *PredictRequest) error {
	var src io.Reader = bytes.NewReader(data)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return decodeOne(json.NewDecoder(src), req)
}

// decodeOne decodes exactly one JSON value from dec into v, refusing unknown
// fields and any data after the value, as json.Unmarshal does: after it,
// only EOF, or a read error after nothing but white space, ends the body.
func decodeOne(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, after := dec.Token(); err == nil && after != io.EOF {
		// What Token could not take (`{...}t`, a read error) is still buffered.
		if rest, _ := io.ReadAll(dec.Buffered()); after == nil || len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
			err = errors.New("data after the JSON value")
		}
	}
	return err
}

// cursor walks JSON text. Its token methods take only the plain forms the
// fast paths can prove they read as encoding/json does; the first thing that
// is anything else sets bad, after which every method is a no-op.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

func (p *cursor) space() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\n' || p.b[p.i] == '\t' || p.b[p.i] == '\r') {
		p.i++
	}
}

// has consumes c if it is the next byte.
func (p *cursor) has(c byte) bool {
	if p.bad || p.i >= len(p.b) || p.b[p.i] != c {
		return false
	}
	p.i++
	return true
}

// hasLit consumes s if the text continues with it.
func (p *cursor) hasLit(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// want consumes s, which must come next.
func (p *cursor) want(s string) { p.bad = !p.hasLit(s) || p.bad }

// digits consumes a run of decimal digits, which must not be empty.
func (p *cursor) digits() {
	b, i := p.b, p.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	p.bad = p.bad || i == p.i
	p.i = i
}

// str consumes a quoted string of printable ASCII with no escapes.
func (p *cursor) str() []byte {
	p.want(`"`)
	for start := p.i; !p.bad && p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			p.bad = true
		}
	}
	p.bad = true
	return nil
}

// number consumes one JSON number literal: -?(0|[1-9][0-9]*), and with
// fraction set, (\.[0-9]+)?([eE][+-]?[0-9]+)?. The caller checks what follows.
func (p *cursor) number(fraction bool) []byte {
	start := p.i
	p.has('-')
	first := p.i
	p.digits()
	p.bad = p.bad || p.b[first] == '0' && p.i-first > 1
	if fraction && p.has('.') {
		p.digits()
	}
	if fraction && (p.has('e') || p.has('E')) {
		if !p.has('+') {
			p.has('-')
		}
		p.digits()
	}
	if p.bad {
		return nil
	}
	return p.b[start:p.i]
}

// integer converts a literal as encoding/json does for an int field.
func (p *cursor) integer() int64 {
	n, err := strconv.ParseInt(string(p.number(false)), 10, 64)
	p.bad = p.bad || err != nil
	return n
}

// float converts a literal as encoding/json does for a float64; one that
// strconv.ParseFloat rejects (out of range) is the fallback's to report.
func (p *cursor) float() float64 {
	f, err := strconv.ParseFloat(string(p.number(true)), 64)
	p.bad = p.bad || err != nil
	return f
}

func (p *cursor) boolean() bool {
	if p.hasLit("true") {
		return true
	}
	p.want("false")
	return false
}

// decodeRequest is the request fast path: data into c.req, rows into the
// call's block. False means the fallback must decide.
func (c *predictCall) decodeRequest(data []byte) bool {
	// encoding/json decodes [] to an empty non-nil slice; slicing non-nil
	// storage keeps that.
	if c.block == nil {
		c.block, c.rows = make([]float64, 0, 2048), make([][]float64, 0, 16)
	}
	c.block, c.rows, c.req = c.block[:0], c.rows[:0], PredictRequest{}
	p := cursor{b: data}
	p.space()
	p.want("{")
	var seen [4]bool // system, version, row, rows: a repeated key is the fallback's
	var rowAt, rowEnd, rowsAt int
	p.space()
	for first := true; !p.bad && !p.has('}'); first = false {
		if !first {
			p.want(",")
			p.space()
		}
		key := p.str()
		p.space()
		p.want(":")
		p.space()
		k := 0
		switch string(key) {
		case "system":
			if b := p.str(); string(b) != c.system {
				c.system = string(b)
			}
			c.req.System = c.system
		case "version":
			k, c.req.Version = 1, int(p.integer())
		case "row":
			k, rowAt = 2, len(c.block)
			c.values(&p)
			rowEnd = len(c.block)
		case "rows":
			k, rowsAt = 3, len(c.block)
			p.want("[")
			p.space()
			for first := true; !p.bad && !p.has(']'); first = false {
				if !first {
					p.want(",")
					p.space()
				}
				start := len(c.block)
				c.values(&p)
				c.rows = append(c.rows, c.block[start:])
				p.space()
			}
		default:
			return false
		}
		p.bad = p.bad || seen[k]
		seen[k] = true
		p.space()
	}
	p.space() // anything but white space after the value is the fallback's
	if p.bad || p.i != len(p.b) {
		return false
	}
	// The block may have moved while it grew, so the headers are cut from
	// where it ended up: rows lie back to back from rowsAt in arrival order.
	if seen[2] {
		c.req.Row = c.block[rowAt:rowEnd:rowEnd]
	}
	if seen[3] {
		at := rowsAt
		for k, r := range c.rows {
			c.rows[k] = c.block[at : at+len(r) : at+len(r)]
			at += len(r)
		}
		c.req.Rows = c.rows
	}
	return true
}

// values consumes one [n, n, ...] array onto the block.
func (c *predictCall) values(p *cursor) {
	p.want("[")
	p.space()
	for first := true; !p.bad && !p.has(']'); first = false {
		if !first {
			p.want(",")
			p.space()
		}
		c.block = append(c.block, p.float())
		p.space()
	}
}

// finite reports whether JSON can carry f.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f the way encoding/json renders a float64.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		// e-09 → e-9, as encoding/json cleans it up.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendJSONString appends s quoted as encoding/json quotes it. Anything it
// would escape (HTML-unsafe bytes included) or validate goes through it.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// timingKeys are the server_timings object's keys as they appear on the
// wire, in the order of ServerTimings.fields.
var timingKeys = [...]string{`,"server_timings":{"total_ns":`, `,"cache_lookup_ns":`, `,"queue_wait_ns":`,
	`,"wave_assemble_ns":`, `,"evaluate_ns":`, `,"guard_ns":`, `,"finalize_ns":`, `,"observe_ns":`}

func (t *ServerTimings) fields() [len(timingKeys)]*int64 {
	return [...]*int64{&t.TotalNs, &t.CacheLookupNs, &t.QueueWaitNs, &t.WaveAssembleNs,
		&t.EvaluateNs, &t.GuardNs, &t.FinalizeNs, &t.ObserveNs}
}

// DecodePredictReply reads a replica's reply into out, reusing its
// Predictions block and ServerTimings. The fast path takes exactly what
// encoding/json emits for a PredictResponse, and a reply that names the
// system out already holds shares that string rather than holding a copy of
// it; any other shape — an older or newer replica, whitespace, reordered
// keys — is encoding/json's to decode. Either way throughput_bytes_per_sec
// and error_source are checked for their type and dropped, so a label that
// contradicts the ood flag beside it is never passed on, and a guard object
// the reply carries is kept even when every field of it is zero.
func DecodePredictReply(data []byte, out *PredictResponse) error {
	if decodeResponse(data, out) {
		return nil
	}
	var reply ReplyJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&reply); err != nil {
		return err
	}
	reply.Into(out)
	return nil
}

// ReplyJSON is a PredictResponse as encoding/json decodes it, for
// DecodePredictReply's fallback and for a caller that embeds it beside fields
// of its own: the derived fields typed as the encoder writes them, and each
// guard through a pointer, so that one the reply carries is told from one it
// leaves out even when all its fields are zero. The outer fields shadow the
// embedded ones (and methods) of the same name.
type ReplyJSON struct {
	PredictResponse
	Predictions []struct {
		PredictionResult
		Throughput float64 `json:"throughput_bytes_per_sec"`
		Guard      *struct {
			Guard
			ErrorSource string `json:"error_source"`
		} `json:"guard"`
	} `json:"predictions"`
}

// Into stores the decoded reply in out, each guard the reply carried marked
// present.
func (r *ReplyJSON) Into(out *PredictResponse) {
	*out = r.PredictResponse // its own predictions are shadowed, so nil
	if r.Predictions != nil {
		out.Predictions = make([]PredictionResult, len(r.Predictions))
	}
	for i, pr := range r.Predictions {
		out.Predictions[i] = pr.PredictionResult
		if pr.Guard != nil {
			out.Predictions[i].Guard = pr.Guard.Guard
			out.Predictions[i].Guard.set = true
		}
	}
}

// decodeResponse is the reply fast path into out, whose Predictions block
// and ServerTimings it reuses. out.System is kept when the reply spells the
// same name.
func decodeResponse(data []byte, out *PredictResponse) bool {
	p := cursor{b: data}
	p.want(`{"system":`)
	system := p.str()
	p.want(`,"version":`)
	version := p.integer()
	p.want(`,"count":`)
	count := p.integer()
	p.want(`,"predictions":[`)
	// The block is sized once from count. The shortest prediction is 68
	// bytes, which bounds what a lying count can make this allocate.
	if p.bad || count < 0 || count > int64(len(data)/64) {
		return false
	}
	if string(system) != out.System {
		out.System = string(system)
	}
	out.Version, out.Count = int(version), int(count)
	// encoding/json decodes [] to an empty non-nil slice.
	if out.Predictions == nil || cap(out.Predictions) < int(count) {
		out.Predictions = make([]PredictionResult, 0, count)
	}
	out.Predictions = out.Predictions[:0]
	for !p.bad && !p.has(']') {
		if len(out.Predictions) == int(count) {
			return false
		}
		if len(out.Predictions) > 0 {
			p.want(",")
		}
		var pr PredictionResult
		p.want(`{"log10_throughput":`)
		pr.Log10Throughput = p.float()
		p.want(`,"throughput_bytes_per_sec":`)
		p.float()
		if p.hasLit(`,"guard":{"eu":`) {
			g := &pr.Guard
			g.EU = p.float()
			p.want(`,"au":`)
			g.AU = p.float()
			p.want(`,"ood":`)
			g.OoD, g.set = p.boolean(), true
			p.want(`,"error_source":"`) // the label the flag implies, and no other
			p.want(g.ErrorSource())
			p.want(`"}`)
		}
		p.want(`,"cache_hit":`)
		pr.CacheHit = p.boolean()
		p.want("}")
		out.Predictions = append(out.Predictions, pr)
	}
	out.TraceID = ""
	if p.hasLit(`,"trace_id":`) {
		out.TraceID = string(p.str())
	}
	if p.hasLit(timingKeys[0]) {
		if out.ServerTimings == nil {
			out.ServerTimings = new(ServerTimings)
		}
		for i, ns := range out.ServerTimings.fields() {
			if i > 0 {
				p.want(timingKeys[i])
			}
			*ns = p.integer()
		}
		p.want("}")
	} else {
		out.ServerTimings = nil
	}
	// The streaming decoder this replaces never looked past the closing
	// brace either.
	p.want("}")
	return !p.bad
}

// AppendPredictRequest appends json.Marshal(req): the body of the hop from
// router to replica. A non-finite feature value is an error, as it is to
// json.Marshal.
func AppendPredictRequest(dst []byte, req *PredictRequest) ([]byte, error) {
	dst = AppendJSONString(append(dst, `{"system":`...), req.System)
	if req.Version != 0 {
		dst = strconv.AppendInt(append(dst, `,"version":`...), int64(req.Version), 10)
	}
	var err error
	if len(req.Row) > 0 {
		if dst, err = appendRow(append(dst, `,"row":`...), req.Row); err != nil {
			return dst, err
		}
	}
	if len(req.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range req.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendRow(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendRow(dst []byte, row []float64) ([]byte, error) {
	if row == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range row {
		if !finite(f) {
			return dst, fmt.Errorf("serve: feature %d is non-finite, which JSON cannot carry", i)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, f)
	}
	return append(dst, ']'), nil
}

// JSONAppender is a predict reply that encodes itself: AppendJSON appends what
// an encoding/json Encoder writes for the reply, trailing newline included,
// or returns the error it returns.
type JSONAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// AppendJSON appends r as encoding/json encodes a PredictResponse whose
// predictions hold Throughput and ErrorSource as fields.
func (r *PredictResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := r.AppendJSONFields(dst)
	return append(dst, "}\n"...), err
}

// AppendJSONFields is AppendJSON without the closing brace and newline: what
// a reply that embeds a PredictResponse (fleet.Response) goes on from.
func (r *PredictResponse) AppendJSONFields(dst []byte) ([]byte, error) {
	var err error
	dst = AppendJSONString(append(dst, `{"system":`...), r.System)
	dst = strconv.AppendInt(append(dst, `,"version":`...), int64(r.Version), 10)
	dst = strconv.AppendInt(append(dst, `,"count":`...), int64(r.Count), 10)
	if r.Predictions == nil {
		dst = append(dst, `,"predictions":null`...)
	} else {
		dst = append(dst, `,"predictions":[`...)
		for i := range r.Predictions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Predictions[i].appendJSON(dst, &err)
		}
		dst = append(dst, ']')
	}
	if r.TraceID != "" {
		dst = AppendJSONString(append(dst, `,"trace_id":`...), r.TraceID)
	}
	if r.ServerTimings != nil {
		for i, ns := range r.ServerTimings.fields() {
			dst = strconv.AppendInt(append(dst, timingKeys[i]...), *ns, 10)
		}
		dst = append(dst, '}')
	}
	return dst, err
}

// MarshalJSON encodes p as a reply carries it.
func (p PredictionResult) MarshalJSON() ([]byte, error) { return marshal(p.appendJSON) }

// MarshalJSON encodes g as a reply carries it.
func (g Guard) MarshalJSON() ([]byte, error) { return marshal(g.appendJSON) }

// marshal runs one of the reply's appenders into a slice of its own.
func marshal(appendJSON func([]byte, *error) []byte) ([]byte, error) {
	var err error
	b := appendJSON(nil, &err)
	return b, err
}

// appendJSON appends p; the first number JSON cannot carry goes in *err.
// A zero guard is left out (the omitzero rule).
func (p PredictionResult) appendJSON(dst []byte, err *error) []byte {
	dst = appendNumber(append(dst, `{"log10_throughput":`...), p.Log10Throughput, err)
	dst = appendNumber(append(dst, `,"throughput_bytes_per_sec":`...), p.Throughput(), err)
	if p.Guard != (Guard{}) {
		dst = p.Guard.appendJSON(append(dst, `,"guard":`...), err)
	}
	return append(strconv.AppendBool(append(dst, `,"cache_hit":`...), p.CacheHit), '}')
}

func (g Guard) appendJSON(dst []byte, err *error) []byte {
	dst = appendNumber(append(dst, `{"eu":`...), g.EU, err)
	dst = appendNumber(append(dst, `,"au":`...), g.AU, err)
	dst = strconv.AppendBool(append(dst, `,"ood":`...), g.OoD)
	return append(AppendJSONString(append(dst, `,"error_source":`...), g.ErrorSource()), '}')
}

// appendNumber appends f as encoding/json renders a float64. A non-finite f
// is left out and, unless *err already holds one, sets *err to the error
// encoding/json returns for it.
func appendNumber(dst []byte, f float64, err *error) []byte {
	if finite(f) {
		return appendFloat(dst, f)
	}
	if *err == nil {
		*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return dst
}

// jsonContentType is every JSON response's Content-Type value: header values
// are read, never written, by net/http.
var jsonContentType = []string{"application/json"}

// errorBody is the uniform error reply, {"error": msg}.
type errorBody struct {
	Error string `json:"error"`
}

// replyBuf is the storage one JSON reply is written from: its bytes and its
// Content-Length value. net/http copies a handler's header values when the
// header is written, so a pooled call can own the value slice as it owns
// the bytes.
type replyBuf struct {
	b      []byte
	length [1]string
}

// Write appends p: an encoding/json Encoder writes each value with one Write.
func (r *replyBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

// WriteJSON writes v as the JSON reply with status (see writeReply). A value
// that does not encode has been answered 500 by then; only the predict paths
// count that error.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	_ = writeReply(w, new(replyBuf), status, v)
}

// WriteError writes the uniform error reply.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{msg})
}

// DecodePost decodes a POST body of at most limit bytes into v, refusing
// unknown fields and anything after the one JSON value. It answers anything
// else itself — 405 for another method, 400 for a body that does not decode
// — and reports whether v holds the request.
func DecodePost(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := decodeOne(json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)), v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

// writeReply is every JSON reply but a predict reply's writer: encode v into
// buf by encoding/json and flush it, or, when v does not encode, answer 500
// with the uniform error body. That error is returned.
func writeReply(w http.ResponseWriter, buf *replyBuf, status int, v any) error {
	buf.b = buf.b[:0]
	err := json.NewEncoder(buf).Encode(v)
	if err != nil {
		err = notEncodable(err)
		_ = writeReply(w, buf, http.StatusInternalServerError, errorBody{err.Error()}) // a string always encodes
		return err
	}
	flushReply(w, buf, status)
	return nil
}

// flushReply writes the reply encoded into buf with its length.
func flushReply(w http.ResponseWriter, buf *replyBuf, status int) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	buf.length[0] = strconv.Itoa(len(buf.b))
	h["Content-Length"] = buf.length[:]
	w.WriteHeader(status)
	_, _ = w.Write(buf.b) // a client that went away is the only failure
}

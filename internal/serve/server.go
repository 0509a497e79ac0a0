package serve

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// HTTP layer. Endpoints:
//
//	POST /v1/predict            — single row ("row") or batch ("rows")
//	GET  /v1/hop                — upgrade to the router's framed predict
//	                              hop (hop.go)
//	GET  /v1/models             — registry listing
//	GET  /v1/versions           — per-system lifecycle view: versions,
//	                              active/latest markers, shadow deltas
//	POST /v1/versions/promote   — pin {"system","version"} as serving default
//	POST /v1/versions/rollback  — revert {"system"} to the pre-promote default
//	POST /v1/versions/reload    — force a registry reload poll
//	GET  /v1/trace              — retained request traces, newest first
//	GET  /v1/trace/{id}         — one trace's span tree
//	GET  /v1/resilience         — admission gate + circuit breaker status
//	GET  /healthz               — liveness + registry summary
//	GET  /metrics               — Prometheus text format
//
// The handler owns no state beyond the Service; it can be mounted into any
// mux or served directly. The mutating admin actions (promote, rollback,
// reload) and the trace endpoints (retained traces carry latency shape and
// system/version topology) can be gated behind a bearer token via
// HandlerConfig.AdminToken; the read and predict paths are never gated.

// maxRequestBody bounds predict request bodies (16 MiB ~ 100k-row batches
// of 20 features; far above what one evaluation should carry).
const maxRequestBody = 16 << 20

// PredictRequest is the POST /v1/predict body and its trace parent.
type PredictRequest struct {
	// System selects the model family (e.g. "theta"); required.
	System string `json:"system"`
	// Version pins a model version; 0 or absent means latest.
	Version int `json:"version,omitempty"`
	// Row is the single-prediction form; Rows the batch form. Exactly
	// one must be set.
	Row  []float64   `json:"row,omitempty"`
	Rows [][]float64 `json:"rows,omitempty"`
	// TraceParent is the fleet router's trace ID (0: none), on the wire in
	// the hop frame's head (or a posted request's X-Trace-Id header);
	// ServeRequest records it as its trace's parent.
	TraceParent uint64 `json:"-"`
}

// PredictResponse is the POST /v1/predict reply.
type PredictResponse struct {
	System      string             `json:"system"`
	Version     int                `json:"version"`
	Count       int                `json:"count"`
	Predictions []PredictionResult `json:"predictions"`
	// TraceID is set when tracing retained this request (also sent as the
	// X-Trace-Id header); fetch the span tree at GET /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
	// ServerTimings is the server-side latency split, so clients (cmd/ioload)
	// can separate queue wait from compute without guessing.
	ServerTimings *ServerTimings `json:"server_timings,omitempty"`
	// row is the header of a "row" request's one row while ServeRequest
	// serves it into this reply.
	row [1][]float64
}

// ServerTimings is the server-side stage split shipped in PredictResponse.
// GuardNs is a slice of EvaluateNs, and stages omit scheduling slack, so
// the stages sum to less than TotalNs.
type ServerTimings struct {
	TotalNs        int64 `json:"total_ns"`
	CacheLookupNs  int64 `json:"cache_lookup_ns"`
	QueueWaitNs    int64 `json:"queue_wait_ns"`
	WaveAssembleNs int64 `json:"wave_assemble_ns"`
	EvaluateNs     int64 `json:"evaluate_ns"`
	GuardNs        int64 `json:"guard_ns"`
	FinalizeNs     int64 `json:"finalize_ns"`
	ObserveNs      int64 `json:"observe_ns"`
}

// serverTimings converts the internal stage attribution to the wire form.
func serverTimings(tm *obs.StageTimings) ServerTimings {
	return ServerTimings{
		TotalNs:        tm.TotalNs,
		CacheLookupNs:  tm.Ns[obs.StageCacheLookup],
		QueueWaitNs:    tm.Ns[obs.StageQueueWait],
		WaveAssembleNs: tm.Ns[obs.StageWaveAssemble],
		EvaluateNs:     tm.Ns[obs.StageEvaluate],
		GuardNs:        tm.Ns[obs.StageGuard],
		FinalizeNs:     tm.Ns[obs.StageFinalize],
		ObserveNs:      tm.Ns[obs.StageObserve],
	}
}

// DeadlineHeader is the request header carrying a per-request deadline in
// whole milliseconds. The effective deadline is the tighter of this and
// HandlerConfig.DefaultDeadline; a request that exceeds it is answered 504,
// and one that is still waiting for an evaluation slot is dropped unevaluated.
const DeadlineHeader = "X-Request-Timeout-Ms"

// HandlerConfig tunes the HTTP layer.
type HandlerConfig struct {
	// AdminToken, when non-empty, is required (constant-time compared) on
	// every mutating admin endpoint: requests must carry it as
	// "Authorization: Bearer <token>" or "X-Admin-Token: <token>", and a
	// missing or mismatched token is answered with 401 before the body is
	// read. Empty leaves the admin endpoints open (the pre-authn behavior).
	AdminToken string
	// Gate, when non-nil, applies admission control to POST /v1/predict:
	// shed requests are answered 429 + Retry-After before the body is
	// read, and accepted-request latency feeds the gate's moving p99.
	Gate *resilience.Gate
	// Resilience, when non-nil, mounts GET /v1/resilience (admin-gated):
	// the gate and breaker status view.
	Resilience *resilience.Set
	// DefaultDeadline bounds every predict request's end-to-end time
	// (the -default-deadline flag). 0 means no server-imposed deadline;
	// clients can always tighten via the DeadlineHeader.
	DefaultDeadline time.Duration
	// SLO, when non-nil, observes every predict call, posted or framed, as
	// class "predict".
	SLO *obs.SLO
}

// AdminAuthorized reports whether a request may perform admin actions
// under the given token ("" means no authn is configured — every request
// qualifies). The comparison is constant-time, so the check does not leak
// how much of a guessed token matched.
func AdminAuthorized(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	got := r.Header.Get("X-Admin-Token")
	if auth := r.Header.Get("Authorization"); got == "" && strings.HasPrefix(auth, "Bearer ") {
		got = strings.TrimPrefix(auth, "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// RequireAdmin wraps a handler with the admin-token gate; internal/drift
// reuses it for its own mutating endpoints so the whole control plane
// shares one credential.
func RequireAdmin(token string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !AdminAuthorized(r, token) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			WriteError(w, http.StatusUnauthorized, "admin token required")
			return
		}
		next(w, r)
	}
}

// Handler wraps a Service as an http.Handler with open admin endpoints.
func Handler(svc *Service) http.Handler { return NewHandler(svc, HandlerConfig{}) }

// TraceHeader is the response header carrying the trace ID the server
// retained for a request. Inbound, an upstream trace ID here becomes the
// parent of the trace this server retains (a fleet router sends its own in
// the hop frame's head instead).
const TraceHeader = "X-Trace-Id"

// StatusForError maps a predict error to its HTTP status. Shared by the
// in-process HTTP layer and the fleet router (which must translate backend
// errors to statuses the same way a replica itself would).
func StatusForError(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrBatcherClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this, but log-parsers do.
		return http.StatusServiceUnavailable
	case errors.Is(err, chaos.ErrInjected):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrEvalPanic):
		return http.StatusInternalServerError
	default:
		// Schema mismatches and malformed batches are client errors.
		return http.StatusBadRequest
	}
}

// ServeRequest is the transport-neutral predict core: request validation,
// the traced predict call, and response assembly, with no HTTP anywhere.
// The HTTP handler and the fleet's in-process replica backend share it, so
// a router-local replica serves exactly what a remote one would. The reply
// is built in out, whose Predictions block and ServerTimings are reused
// (grown or allocated only when missing); out is meaningful only on
// success. The returned trace hex is non-empty when tail-sampling retained
// the request (set on success and error alike — a failed request's trace
// is exactly the one an operator wants to look up).
func (s *Service) ServeRequest(ctx context.Context, req *PredictRequest, out *PredictResponse) (string, error) {
	if req.System == "" {
		return "", BadRequest("missing \"system\"")
	}
	rows := req.Rows
	if req.Row != nil {
		if rows != nil {
			return "", BadRequest("set \"row\" or \"rows\", not both")
		}
		out.row[0] = req.Row
		rows = out.row[:]
	}
	if len(rows) == 0 {
		return "", BadRequest("no rows to predict")
	}
	results, mv, tm, traceID, err := s.predictTraced(ctx, req.System, req.Version, rows, out.Predictions, req.TraceParent)
	out.row[0] = nil
	traceHex := ""
	if traceID != 0 {
		traceHex = obs.FormatTraceID(traceID)
	}
	if err != nil {
		return traceHex, err
	}
	if out.ServerTimings == nil {
		out.ServerTimings = new(ServerTimings)
	}
	*out.ServerTimings = serverTimings(&tm)
	out.System, out.Version, out.Count, out.Predictions, out.TraceID = req.System, mv.Version, len(results), results, traceHex
	return traceHex, nil
}

// NewHandler wraps a Service as an http.Handler under the given config.
func NewHandler(svc *Service, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	p := &predictor{svc: svc, cfg: &cfg}
	mux.HandleFunc("/v1/predict", p.handlePredict)
	mux.HandleFunc(HopPath, p.handleHop)
	mux.HandleFunc("/v1/resilience", conflictUnless(cfg.Resilience != nil, "resilience layer not configured (start ioserve with -admission-max-inflight or -reload-interval)",
		RequireAdmin(cfg.AdminToken, GetJSON(func(*http.Request) any { return cfg.Resilience.Status() }))))
	mux.HandleFunc("/v1/models", GetJSON(func(*http.Request) any { return map[string]any{"models": svc.Registry().List()} }))
	mux.HandleFunc("/v1/versions", GetJSON(func(*http.Request) any { return map[string]any{"systems": systemVersions(svc)} }))
	mux.HandleFunc("/v1/versions/promote", RequireAdmin(cfg.AdminToken, versionAction(svc, func(req *versionActionRequest) (int, error) {
		if req.Version <= 0 {
			return 0, BadRequest("missing \"version\"")
		}
		return req.Version, svc.Registry().Promote(req.System, req.Version)
	})))
	mux.HandleFunc("/v1/versions/rollback", RequireAdmin(cfg.AdminToken, versionAction(svc, func(req *versionActionRequest) (int, error) {
		return svc.Registry().Rollback(req.System)
	})))
	mux.HandleFunc("/v1/versions/reload", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rel := svc.Reloader()
		if rel == nil {
			WriteError(w, http.StatusConflict, "no reloader attached (start ioserve with -reload-interval)")
			return
		}
		stats, err := rel.Poll()
		body := map[string]any{"reload": stats}
		status := http.StatusOK
		if err != nil {
			// Per-directory load failures are the documented skip-and-
			// keep-serving policy — report them at 200 alongside the
			// stats. Only a poll that failed wholesale (the root itself
			// unscannable) is a server fault that status-code-driven
			// automation must see as one.
			body["error"] = err.Error()
			if errors.Is(err, errScanFailed) {
				status = http.StatusInternalServerError
			}
		}
		WriteJSON(w, status, body)
	}))
	tr := svc.Tracer()
	MountTraces(mux, cfg.AdminToken, tr != nil, "ioserve", func(limit int) (int64, any) {
		traces := tr.Recent(limit)
		summaries := make([]obs.TraceSummary, len(traces))
		for i := range traces {
			summaries[i] = traces[i].Summary()
		}
		return tr.SlowThresholdNs(), summaries
	}, func(_ context.Context, id uint64) (obs.TraceDetail, bool) {
		t, ok := tr.Get(id)
		return t.Detail(), ok
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"systems":  svc.Registry().Systems(),
			"versions": svc.Registry().NumVersions(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		// A failed write means the scraper hung up: no one is left to tell.
		_ = obs.WriteFamilies(w, svc.Metrics().Collect(nil))
	})
	return mux
}

// predictor is ioserve's one predict core: POST /v1/predict and the hop's
// frames both call predict, so a routed row is answered as a posted one is.
type predictor struct {
	svc *Service
	cfg *HandlerConfig
}

func (p *predictor) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// An upstream X-Trace-Id (a router's hop identity) becomes the parent of
	// whatever trace this replica retains, so one router-side ID finds the
	// replica-side traces of every sub-request it fanned out. Without a
	// tracer nothing is retained and nothing reads it.
	var parent uint64
	if h := r.Header.Get(TraceHeader); h != "" && p.svc.tracer != nil {
		parent, _ = obs.ParseTraceID(h)
	}
	c := getCall(0)
	defer c.release()
	p.predict(r.Context(), c, headerBudget(r), parent, func(c *predictCall) { c.readHTTP(w, r) })
	c.writeHTTP(w)
}

// predict answers one predict call into c, for its envelope to write. In
// order: admission, a shed answered 429 with Retry-After before the body is
// read (read, when the envelope has not read it already) or decoded — a shed
// request must cost the server as close to nothing as possible, or shedding
// can't shed load; then serveCall under the tighter of the default deadline
// and budgetMs, with the trace parent, ServeRequest and its error's status;
// the 5xx logs, the error count and the SLO's predict class.
func (p *predictor) predict(ctx context.Context, c *predictCall, budgetMs int64, parent uint64, read func(*predictCall)) {
	svc, start := p.svc, time.Now()
	defer func() { p.cfg.SLO.Observe("predict", c.ans.Status, time.Since(start)) }()
	if gate := p.cfg.Gate; gate != nil {
		ok, reason := gate.Admit(resilience.ClassPredict)
		if !ok {
			c.ans.RetryAfter = gate.RetryAfterHeader()
			if id := svc.TraceShed("", string(reason)); id != 0 {
				c.ans.TraceID = obs.FormatTraceID(id)
			}
			c.fail(http.StatusTooManyRequests, fmt.Sprintf("overloaded (%s): retry later", reason))
			return
		}
		defer func() { gate.Release(time.Since(start)) }()
	}
	if read != nil {
		read(c)
	}
	err := c.serveCall(ctx, p.cfg.DefaultDeadline, budgetMs, func(ctx context.Context, req *PredictRequest, out *PredictResponse, a *Answer) (JSONAppender, error) {
		req.TraceParent = parent
		traceHex, err := svc.ServeRequest(ctx, req, out)
		// Set on success and error alike: a failed request's retained trace
		// is exactly the one an operator wants to look up.
		a.TraceID = traceHex
		if err != nil {
			a.Status, a.Msg = StatusForError(err), err.Error()
			if a.Status >= 500 {
				svc.logger.Error("predict failed", "system", req.System, "status", a.Status, "trace_id", traceHex, "err", err)
			}
			return nil, err
		}
		return out, nil
	})
	if err != nil {
		// Answered 500: a reply JSON cannot carry (a non-finite prediction)
		// is counted and logged.
		svc.metrics.Errors.Add(1)
		svc.logger.Error("predict response not encodable",
			"system", c.reply.System, "version", c.reply.Version, "trace_id", c.ans.TraceID, "err", err)
	}
}

// GetJSON is a JSON view's handler: a GET is answered 200 with what view
// returns, any other method 405.
func GetJSON(view func(*http.Request) any) http.HandlerFunc {
	return getOnly(func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, view(r)) })
}

func getOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		next(w, r)
	}
}

// MountSLO mounts GET /v1/slo: each objective's compliance, burn rates and
// alert state, or 409 naming bin's -slo flag when slo is nil.
func MountSLO(mux *http.ServeMux, slo *obs.SLO, bin string) {
	mux.HandleFunc("/v1/slo", conflictUnless(slo != nil, "SLO tracking disabled (start "+bin+" with -slo)",
		GetJSON(func(*http.Request) any { return map[string]any{"objectives": slo.Status()} })))
}

// conflictUnless answers 409 with msg when on is false: the endpoint's
// subsystem is off. Otherwise next answers.
func conflictUnless(on bool, msg string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !on {
			WriteError(w, http.StatusConflict, msg)
			return
		}
		next(w, r)
	}
}

// MountTraces mounts GET /v1/trace (list: the slow threshold and at most
// limit retained traces, newest first; 0 is all) and GET /v1/trace/{id}
// (get: one trace, false when not retained) behind the admin token. Both
// answer 409 naming bin's -trace-sample flag when on is false.
func MountTraces[D any](mux *http.ServeMux, token string, on bool, bin string,
	list func(limit int) (slowThresholdNs int64, traces any), get func(context.Context, uint64) (D, bool)) {
	traced := func(next http.HandlerFunc) http.HandlerFunc {
		return RequireAdmin(token, getOnly(conflictUnless(on, "tracing disabled (start "+bin+" with -trace-sample)", next)))
	}
	mux.HandleFunc("/v1/trace", traced(func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				WriteError(w, http.StatusBadRequest, "limit must be a non-negative integer")
				return
			}
			limit = n
		}
		slow, traces := list(limit)
		WriteJSON(w, http.StatusOK, map[string]any{"slow_threshold_ns": slow, "traces": traces})
	}))
	mux.HandleFunc("/v1/trace/", traced(func(w http.ResponseWriter, r *http.Request) {
		idHex := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
		id, err := obs.ParseTraceID(idHex)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad trace id %q", idHex))
			return
		}
		detail, ok := get(r.Context(), id)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("trace %s not retained (evicted or never kept)", idHex))
			return
		}
		WriteJSON(w, http.StatusOK, detail)
	}))
}

// PostJSON is an admin action's handler: DecodePost a body of at most limit
// bytes into a new T, act on it, and answer what act returns with status,
// or act's error through fail.
func PostJSON[T any](limit int64, status int, act func(context.Context, *T) (any, error), fail func(http.ResponseWriter, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if !DecodePost(w, r, limit, &req) {
			return
		}
		reply, err := act(r.Context(), &req)
		if err != nil {
			fail(w, err)
			return
		}
		WriteJSON(w, status, reply)
	}
}

// ActionError answers a model action's error: 400 for a BadRequest, 404 for
// an unknown model, status for anything else.
func ActionError(status int) func(http.ResponseWriter, error) {
	return func(w http.ResponseWriter, err error) {
		code := status
		if errors.Is(err, ErrUnknownModel) {
			code = http.StatusNotFound
		} else if errors.As(err, new(BadRequest)) {
			code = http.StatusBadRequest
		}
		WriteError(w, code, err.Error())
	}
}

// BadRequest is a client error, answered 400 (ActionError, StatusForError).
type BadRequest string

func (e BadRequest) Error() string { return string(e) }

// SystemVersions is one system's lifecycle view at GET /v1/versions.
type SystemVersions struct {
	System string `json:"system"`
	// Active is the serving default; Pinned reports whether an operator
	// promotion holds it (false = auto-tracking the highest version).
	Active   int              `json:"active"`
	Pinned   bool             `json:"pinned"`
	Versions []VersionInfo    `json:"versions"`
	Shadow   []ShadowSnapshot `json:"shadow,omitempty"`
}

// systemVersions assembles the lifecycle view for every system.
func systemVersions(svc *Service) []SystemVersions {
	byName := make(map[string]*SystemVersions)
	var order []*SystemVersions
	for _, info := range svc.Registry().List() {
		sv, ok := byName[info.System]
		if !ok {
			sv = &SystemVersions{
				System: info.System,
				Pinned: svc.Registry().Pinned(info.System),
				Shadow: svc.Metrics().ShadowSnapshots(info.System),
			}
			byName[info.System] = sv
			order = append(order, sv)
		}
		if info.Active {
			sv.Active = info.Version
		}
		sv.Versions = append(sv.Versions, info)
	}
	out := make([]SystemVersions, len(order))
	for i, sv := range order {
		out[i] = *sv
	}
	return out
}

// versionActionRequest is the POST body of the promote/rollback actions.
type versionActionRequest struct {
	System  string `json:"system"`
	Version int    `json:"version,omitempty"`
}

// versionAction is promote's and rollback's handler: apply the action to
// the request's system and answer the system's refreshed lifecycle view.
func versionAction(svc *Service, apply func(*versionActionRequest) (int, error)) http.HandlerFunc {
	return PostJSON(1<<16, http.StatusOK, func(_ context.Context, req *versionActionRequest) (any, error) {
		if req.System == "" {
			return nil, BadRequest("missing \"system\"")
		}
		active, err := apply(req)
		if err != nil {
			return nil, err
		}
		for _, sv := range systemVersions(svc) {
			if sv.System == req.System {
				return sv, nil
			}
		}
		// Unreachable unless the system vanished between apply and listing.
		return map[string]any{"system": req.System, "active": active}, nil
	}, ActionError(http.StatusConflict))
}

package fleet

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// The router's HTTP surface — a drop-in for ioserve's predict contract:
//
//	POST /v1/predict    — the ioserve body, answered with the replica
//	                      contract plus a per-replica share split
//	GET  /v1/fleet      — membership, breaker states, per-replica load and
//	                      active versions
//	GET  /v1/trace      — retained routed-request traces, newest first
//	GET  /v1/trace/{id} — one stitched cross-process span tree (the
//	                      router's stages with every replica's own span
//	                      tree spliced under its fan-out hop)
//	GET  /v1/slo        — SLO compliance, burn rates, and alert states
//	GET  /healthz       — liveness (503 when no replica is on the ring)
//	GET  /metrics       — iorouter_* series + per-replica breaker series
//	                      + fleet-merged replica series + SLO series
//
// Clients that speak ioserve speak the router unchanged: same request
// body, same error statuses (replica statuses pass through), same
// X-Trace-Id and X-Request-Timeout-Ms headers.

// maxRouterBody is the predict body bound: ioserve's, which the shared
// request reader applies on the router too. The replica reply bound is
// sized from it.
const maxRouterBody = 16 << 20

// HandlerConfig tunes the router's HTTP surface.
type HandlerConfig struct {
	// AdminToken gates the trace endpoints (bearer or X-Admin-Token, the
	// same scheme as ioserve). Empty leaves them open.
	AdminToken string
	// SLO, when non-nil, tracks predict outcomes against its objectives,
	// serves GET /v1/slo, and adds iorouter_slo_* series to /metrics.
	SLO *obs.SLO
}

// Handler mounts the router's HTTP surface with default config.
func Handler(rt *Router) http.Handler { return NewHandler(rt, HandlerConfig{}) }

// NewHandler mounts the router's HTTP surface.
func NewHandler(rt *Router, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	predict := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleRoute(rt, w, r)
	})
	mux.Handle("/v1/predict", obs.SLOMiddleware(cfg.SLO, func(r *http.Request) string { return "predict" }, predict))
	mux.HandleFunc("/v1/fleet", serve.GetJSON(func(*http.Request) any { return rt.View() }))
	// The registration plane. Admin-gated: membership changes are control
	// actions, and the agent sends the same token it uses for its own
	// admin surface.
	mux.HandleFunc("/v1/fleet/register", serve.RequireAdmin(cfg.AdminToken, serve.PostJSON(maxMembershipBody, http.StatusOK,
		func(_ context.Context, req *RegisterRequest) (any, error) { return rt.Register(*req) }, writeMembershipError)))
	mux.HandleFunc("/v1/fleet/heartbeat", serve.RequireAdmin(cfg.AdminToken, serve.PostJSON(maxMembershipBody, http.StatusOK,
		func(_ context.Context, req *HeartbeatRequest) (any, error) { return rt.Heartbeat(req.Name) }, writeMembershipError)))
	mux.HandleFunc("/v1/fleet/deregister", serve.RequireAdmin(cfg.AdminToken, serve.PostJSON(maxMembershipBody, http.StatusOK,
		func(ctx context.Context, req *DeregisterRequest) (any, error) { return rt.Deregister(ctx, req.Name) }, writeMembershipError)))
	serve.MountTraces(mux, cfg.AdminToken, rt.tracer != nil, "iorouter", func(limit int) (int64, any) {
		traces := rt.tracer.Recent(limit)
		summaries := make([]FleetTraceSummary, len(traces))
		for i, t := range traces {
			summaries[i] = FleetTraceSummary{
				TraceID: obs.FormatTraceID(t.ID),
				System:  t.System,
				Start:   t.Start,
				TotalNs: t.TotalNs,
				Rows:    t.Rows,
				Hops:    len(t.Hops),
				Kept:    t.Keep,
				Error:   t.Err,
			}
		}
		return rt.tracer.SlowThresholdNs(), summaries
	}, rt.StitchTrace)
	serve.MountSLO(mux, cfg.SLO, "iorouter")
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		view := rt.View()
		status := http.StatusOK
		state := "ok"
		if view.Healthy == 0 {
			status, state = http.StatusServiceUnavailable, "no healthy replicas"
		}
		serve.WriteJSON(w, status, map[string]any{
			"status":   state,
			"healthy":  view.Healthy,
			"replicas": len(view.Replicas),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", serve.MetricsContentType)
		var fams []obs.PromFamily
		for _, collect := range []func([]obs.PromFamily) []obs.PromFamily{rt.collect, rt.res.Collect,
			rt.tracer.Collect, rt.memlog.Collect, rt.scrape.Collect} {
			fams = collect(fams)
		}
		// A failed write means the scraper hung up: no one is left to tell.
		_ = obs.WriteFamilies(w, cfg.SLO.Collect("iorouter", fams))
	})
	return mux
}

// FleetTraceSummary is one routed trace in the GET /v1/trace listing.
type FleetTraceSummary struct {
	TraceID string    `json:"trace_id"`
	System  string    `json:"system"`
	Start   time.Time `json:"start"`
	TotalNs int64     `json:"total_ns"`
	Rows    int       `json:"rows"`
	Hops    int       `json:"hops"`
	Kept    string    `json:"kept_because"`
	Error   string    `json:"error,omitempty"`
}

func handleRoute(rt *Router, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The client's deadline bounds the whole fan-out; Remote backends
	// forward the remaining budget in each hop frame's head so replicas
	// drop expired requests themselves. The reply is built in pooled
	// storage, taken back once it is written and logged.
	out := responsePool.Get().(*Response)
	defer out.release()
	err := serve.HandlePredictRequest(w, r, 0, func(ctx context.Context, req *serve.PredictRequest, _ *serve.PredictResponse, a *serve.Answer) (serve.JSONAppender, error) {
		if err := rt.route(ctx, req, out); err != nil {
			be, ok := err.(*BackendError)
			if !ok {
				be = &BackendError{Status: http.StatusServiceUnavailable, Msg: err.Error()}
			}
			a.Status, a.RetryAfter, a.Msg = be.Status, be.RetryAfter, be.Msg
			return nil, err
		}
		a.TraceID = out.TraceID
		return out, nil
	})
	if err != nil {
		// The envelope answered 500: a response JSON cannot carry is counted
		// and logged.
		rt.metrics.errors.Add(1)
		rt.logger.Error("routed response not encodable",
			"system", out.System, "version", out.Version, "trace_id", out.TraceID, "err", err)
	}
}

var responsePool = sync.Pool{New: func() any { return new(Response) }}

// AppendJSON appends out as encoding/json encodes a Response: the replica
// contract's fields, then the split (see serve.JSONAppender).
func (out *Response) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := out.AppendJSONFields(dst)
	sep := `,"replicas":[`
	for _, sh := range out.Replicas {
		dst = serve.AppendJSONString(append(append(dst, sep...), `{"replica":`...), sh.Replica)
		dst = strconv.AppendInt(append(dst, `,"rows":`...), int64(sh.Rows), 10)
		dst = strconv.AppendInt(append(dst, `,"version":`...), int64(sh.Version), 10)
		idSep := `,"trace_ids":[`
		for _, id := range sh.TraceIDs {
			dst = serve.AppendJSONString(append(dst, idSep...), id)
			idSep = ","
		}
		if len(sh.TraceIDs) > 0 {
			dst = append(dst, ']')
		}
		dst, sep = append(dst, '}'), ","
	}
	if len(out.Replicas) > 0 {
		dst = append(dst, ']')
	}
	if out.MembershipEpoch != 0 {
		dst = strconv.AppendUint(append(dst, `,"membership_epoch":`...), out.MembershipEpoch, 10)
	}
	return append(dst, "}\n"...), err
}

// release returns a routed reply's storage to the pool, unless its
// predictions outgrew maxScratchRows. route overwrites all of it.
func (out *Response) release() {
	if cap(out.Predictions) <= maxScratchRows {
		responsePool.Put(out)
	}
}

// maxMembershipBody bounds a registration-plane request body.
const maxMembershipBody = 1 << 20

// writeMembershipError maps membership errors to statuses: unknown member
// is 404 (the agent's re-register signal), BackendError carries its own.
func writeMembershipError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownMember) {
		serve.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	if be, ok := err.(*BackendError); ok {
		serve.WriteError(w, be.Status, be.Msg)
		return
	}
	serve.WriteError(w, http.StatusInternalServerError, err.Error())
}

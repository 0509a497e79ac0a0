package drift

import (
	"context"
	"net/http"

	"iotaxo/internal/serve"
)

// HTTP surface of the control plane, mounted next to the serving handler:
//
//	GET  /v1/drift          — status report: per-system detector state,
//	                          streaks, staged candidate, decision log
//	POST /v1/drift/retrain  — force a retrain ({"system":...}); admin
//	POST /v1/feedback       — ground-truth ingestion: {"system","rows":
//	                          [[...]],"actual":[...]}, optionally with
//	                          "start":[...] and "app":[...]; admin
//
// The forced retrain and feedback are admin actions sharing the serving
// token (serve.RequireAdmin); only the status report is open. Feedback
// looks like data ingestion, but it feeds the retraining buffer and the
// champion/challenger verdicts — with auto-promote on, an unauthenticated
// feedback endpoint would let anyone steer a poisoned model into the
// serving path. Ground-truth producers are control-plane clients and
// carry the token.

// maxFeedbackBody bounds feedback bodies (same budget as predict).
const maxFeedbackBody = 16 << 20

// FeedbackRequest is the POST /v1/feedback body.
type FeedbackRequest struct {
	System string      `json:"system"`
	Rows   [][]float64 `json:"rows"`
	// Actual holds the measured throughputs (bytes/s), aligned with Rows.
	Actual []float64 `json:"actual"`
	// Start (unix seconds, > 0) and App are optional, each absent or
	// aligned with Rows. With them a retrain measures the noise floor on
	// its window (litmus test 4 groups duplicate jobs by app and start
	// time); without them it carries the incumbent's floor.
	Start []float64 `json:"start,omitempty"`
	App   []string  `json:"app,omitempty"`
}

// retrainRequest is the POST /v1/drift/retrain body.
type retrainRequest struct {
	System string `json:"system"`
}

// Handler exposes the control plane over HTTP. adminToken gates the
// mutating drift controls ("" leaves them open).
func (c *Controller) Handler(adminToken string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/drift", serve.GetJSON(func(*http.Request) any { return c.Status() }))
	mux.HandleFunc("/v1/drift/retrain", serve.RequireAdmin(adminToken, serve.PostJSON(1<<16, http.StatusAccepted,
		func(_ context.Context, req *retrainRequest) (any, error) {
			if req.System == "" {
				return nil, serve.BadRequest("missing \"system\"")
			}
			return map[string]any{"system": req.System, "status": "retraining"}, c.ForceRetrain(req.System)
		}, serve.ActionError(http.StatusConflict))))
	mux.HandleFunc("/v1/feedback", serve.RequireAdmin(adminToken, serve.PostJSON(maxFeedbackBody, http.StatusOK,
		func(ctx context.Context, req *FeedbackRequest) (any, error) {
			if req.System == "" {
				return nil, serve.BadRequest("missing \"system\"")
			}
			return c.Feedback(ctx, *req)
		}, serve.ActionError(http.StatusBadRequest))))
	return mux
}

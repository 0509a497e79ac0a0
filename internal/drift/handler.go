package drift

import (
	"encoding/json"
	"errors"
	"fmt"
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
	mux.HandleFunc("/v1/drift", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		serve.WriteJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("/v1/drift/retrain", serve.RequireAdmin(adminToken, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req retrainRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			return
		}
		if req.System == "" {
			serve.WriteError(w, http.StatusBadRequest, "missing \"system\"")
			return
		}
		if err := c.ForceRetrain(req.System); err != nil {
			status := http.StatusConflict
			if errors.Is(err, serve.ErrUnknownModel) {
				status = http.StatusNotFound
			}
			serve.WriteError(w, status, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusAccepted, map[string]any{"system": req.System, "status": "retraining"})
	}))
	mux.HandleFunc("/v1/feedback", serve.RequireAdmin(adminToken, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req FeedbackRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFeedbackBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			return
		}
		if req.System == "" {
			serve.WriteError(w, http.StatusBadRequest, "missing \"system\"")
			return
		}
		res, err := c.Feedback(r.Context(), req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrUnknownModel) {
				status = http.StatusNotFound
			}
			serve.WriteError(w, status, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, res)
	}))
	return mux
}

// Package obs is the serving stack's zero-dependency observability layer:
// request tracing with per-stage latency attribution, tail-sampled
// retention in one generic ring, Go runtime health metrics for the
// /metrics exposition, and structured logging setup shared by the serving
// binaries.
//
// The design splits responsibilities so the hot path stays allocation-free:
//
//	StageTimings — a plain stack value the predict path accumulates stage
//	               durations into; recording costs a few time.Now calls and
//	               zero heap traffic (trace.go)
//	Trace        — the pooled, completed-request record built from a
//	               StageTimings at the end of a request; only exists when
//	               tracing is enabled (trace.go)
//	Tracer       — owns the trace pool, the tail-sampling keep policy it
//	               shares with RouterTracer (always keep sheds, deadline
//	               expiries, errors, OoD-flagged rows, and requests slower
//	               than a moving p99 threshold; head-sample 1-in-N of the
//	               rest), and a ring of retained traces (tracer.go)
//	Ring[T]      — the one lock-light, store-by-value ring: retained
//	               traces, routed traces and membership events (ring.go)
//	LatencyBuckets — the one 50µs..1s ladder the serving histograms, the
//	               moving p99 and the SLO windows count over (p99.go)
//	runtime      — GC pause, goroutine, and heap series rendered into the
//	               Prometheus exposition at scrape time (runtime.go)
//	logging      — slog construction for the binaries plus a discard
//	               default so library code can log unconditionally (obs.go)
//
// internal/serve threads StageTimings through its predict path. obs serves
// no HTTP view itself: serve and fleet mount the trace and SLO endpoints
// over Tracer, RouterTracer and SLO.Status through serve's reply writers;
// cmd/ioserve wires pprof (-pprof-addr) and the structured logs.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a structured logger writing to w. format is "text" or
// "json"; level is "debug", "info", "warn", or "error".
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}

// NopLogger returns a logger that discards every record, so library code
// (internal/serve, internal/drift) can log unconditionally and embedders
// that configure nothing pay only a level check.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

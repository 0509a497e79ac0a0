// Package proc is the process shell ioserve and iorouter share: the nine
// process flags both take, the logger and SLO tracker built from them, and
// Serve, the one listener, pprof and graceful-shutdown sequence.
package proc

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotaxo/internal/obs"
)

// Shell holds the shared process flags and, once Setup has run, the logger
// built from them.
type Shell struct {
	Addr          string
	AdminToken    string
	TraceSample   float64
	TraceBuffer   int
	SLOSpec       string
	PprofAddr     string
	ShutdownGrace time.Duration
	LogFormat     string
	LogLevel      string

	Logger *slog.Logger
}

// Register adds the shared flags to fs; -addr defaults to addr.
func Register(fs *flag.FlagSet, addr string) *Shell {
	s := new(Shell)
	fs.StringVar(&s.Addr, "addr", addr, "listen address")
	fs.StringVar(&s.AdminToken, "admin-token", os.Getenv("IOSERVE_ADMIN_TOKEN"),
		"bearer token gating the admin endpoints; iorouter also sends it to its replicas (default $IOSERVE_ADMIN_TOKEN; empty leaves them open)")
	fs.Float64Var(&s.TraceSample, "trace-sample", 0,
		"fraction of requests head-sampled into the trace ring; errors, slow requests and ioserve's OoD requests are always kept (0 disables tracing and /v1/trace)")
	fs.IntVar(&s.TraceBuffer, "trace-buffer", 256, "retained-trace ring capacity")
	fs.StringVar(&s.SLOSpec, "slo", "",
		"SLO objectives as 'class:p99=25ms,avail=99.9[;class:...]' over classes predict and (ioserve) control; enables /v1/slo and <binary>_slo_* series (empty disables)")
	fs.StringVar(&s.PprofAddr, "pprof-addr", "",
		"serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	fs.DurationVar(&s.ShutdownGrace, "shutdown-grace", 10*time.Second,
		"drain window for in-flight requests after SIGINT/SIGTERM before the listener is torn down")
	fs.StringVar(&s.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&s.LogLevel, "log-level", "info", "log verbosity: debug, info, warn, or error")
	return s
}

// Setup builds the logger and parses -slo, logging each objective and
// whether tracing is on. The SLO tracker is nil when -slo is empty.
func (s *Shell) Setup() (*obs.SLO, error) {
	var err error
	if s.Logger, err = obs.NewLogger(os.Stderr, s.LogFormat, s.LogLevel); err != nil {
		return nil, err
	}
	if s.TraceSample > 0 {
		s.Logger.Info("request tracing on", "head_sample_every", s.TraceEvery(), "ring", s.TraceBuffer)
	}
	if s.SLOSpec == "" {
		return nil, nil
	}
	specs, err := obs.ParseSLO(s.SLOSpec)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		s.Logger.Info("SLO objective on", "objective", spec.String())
	}
	return obs.NewSLO(specs), nil
}

// TraceEvery converts -trace-sample to the tracers' 1-in-N head-sampling
// period (0 = disabled).
func (s *Shell) TraceEvery() int {
	switch {
	case s.TraceSample <= 0:
		return 0
	case s.TraceSample >= 1:
		return 1
	}
	return int(math.Round(1 / s.TraceSample))
}

// Serve binds -addr and serves h on it, and net/http/pprof on -pprof-addr
// when set, until ctx ends, the first SIGINT or SIGTERM arrives (a second
// one kills the process the default way) or the server fails. started, when
// non-nil, runs once the listener is bound, with a context that ends when
// shutdown begins. Shutdown runs drain, when non-nil, then stops pprof and
// lets in-flight requests finish, all within -shutdown-grace.
func (s *Shell) Serve(ctx context.Context, h http.Handler, started, drain func(context.Context)) error {
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ln, err := net.Listen("tcp", s.Addr)
	if err != nil {
		return err
	}
	var psrv *http.Server
	if s.PprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling exposure
		// is an explicit, separately firewallable choice — never a route
		// that leaks onto the serving port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Addr: s.PprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close() // on a serve error; after Shutdown it does nothing
		go func() {
			s.Logger.Info("pprof listening", "addr", s.PprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.Logger.Error("pprof server failed", "err", err)
			}
		}()
	}
	s.Logger.Info("listening", "addr", s.Addr)
	server := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	if started != nil {
		started(ctx)
	}
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stopSignals()
	s.Logger.Info("shutting down", "grace", s.ShutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), s.ShutdownGrace)
	defer cancel()
	if drain != nil {
		drain(sctx)
	}
	if psrv != nil {
		_ = psrv.Shutdown(sctx)
	}
	if err := server.Shutdown(sctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	s.Logger.Info("shutdown complete")
	return nil
}

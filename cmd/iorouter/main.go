// Command iorouter is the fleet front end: it routes POST /v1/predict
// traffic across N shared-nothing ioserve replicas by duplicate-cache
// affinity, with health-checked membership and per-replica circuit
// breakers. Membership is dynamic: -replicas is optional (a router may
// boot with zero replicas), ioserve replicas self-register over the
// lease-based registration plane and are ejected on lease expiry, and
// -fleet-state persists membership snapshots so a restarted router
// rebuilds its fleet without waiting for re-registrations. A -replicas
// member is the same member record as a registered one, except that it
// starts active on the ring with no lease, so it never expires. The router
// restores the -fleet-state snapshot as it starts: a missing file is a
// first boot, a corrupt one is logged and ignored, and restored members
// wait for a healthy probe.
//
// Usage:
//
//	iorouter -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	iorouter                                     # zero replicas; fleet self-assembles
//	iorouter -fleet-state /var/lib/iorouter/membership.json -lease-ttl 3s
//	iorouter -replicas ... -health-interval 500ms -breaker-threshold 2 -breaker-cooldown 3s
//	iorouter -replicas ... -admin-token $IOSERVE_ADMIN_TOKEN   # unlock replica trace views
//	iorouter -replicas ... -trace-sample 0.01 -slo 'predict:p99=25ms,avail=99.9'
//	iorouter -replicas ... -pprof-addr localhost:6061
//
// Endpoints:
//
//	POST /v1/predict    — the ioserve predict contract; the response adds a
//	                      "replicas" array with each replica's share of the
//	                      batch (plus its replica-side trace IDs) and the
//	                      membership_epoch it was routed under, and
//	                      X-Trace-Id carries the fleet trace ID stamped on
//	                      every sub-request
//	GET  /v1/fleet      — membership (lifecycle state, lease, flaps,
//	                      capabilities), breaker states, per-replica load
//	                      and active versions, recent membership events
//	POST /v1/fleet/register   — join the fleet; grants a heartbeat
//	                            lease                              [admin]
//	POST /v1/fleet/heartbeat  — renew a lease (404 → re-register)  [admin]
//	POST /v1/fleet/deregister — coordinated drain: off the ring
//	                            immediately, confirms once in-flight
//	                            rows finish                        [admin]
//	GET  /v1/trace      — retained routed traces, newest first     [admin]
//	GET  /v1/trace/{id} — one stitched cross-process span tree     [admin]
//	GET  /v1/slo        — SLO compliance, burn rates, alert states
//	GET  /healthz       — liveness (503 when no replica is on the ring)
//	GET  /metrics       — iorouter_* series + per-replica breaker series
//	                      + fleet-merged replica series + SLO series
//
// Routing: each row's feature-vector hash is looked up on a consistent-
// hash ring (so exact duplicate jobs — the workload mass the paper's
// Sec. VI measures — chase the replica whose prediction cache already
// holds them), and each row goes to that ring owner. A replica that fails
// health checks or trips its breaker is ejected and its hash arcs remapped
// minimally; a sub-request its owner faults on fails over to the
// least-loaded untried replica. A member with 3 involuntary exits inside a
// minute is damped: held off the ring for 10s before a healthy probe may
// readmit it.
//
// Observability: -trace-sample enables router tracing — each routed
// request's admit/score/fanout/reassemble split plus one hop span per
// replica dispatch, tail-sampled (errors and slow always kept). GET
// /v1/trace/{id} stitches the router trace with the replicas' own
// retained span trees (fetched over their admin surface — run replicas
// with -trace-sample too) into one cross-process tree with per-hop
// network time made explicit. The health prober doubles as a
// single-cadence /metrics scraper: replica counters and histograms are
// merged into this router's /metrics under per-replica up/staleness
// gauges. -slo tracks objectives ('class:p99=25ms,avail=99.9;...') with
// multi-window burn rates at GET /v1/slo. -pprof-addr serves
// net/http/pprof on its own listener (keep it loopback-only).
//
// Replicas should share one registry tree (same -models directory, e.g.
// on a shared filesystem) with -reload-interval set, so drift publishes
// propagate fleet-wide; GET /v1/fleet shows each replica's active
// versions converging after a publish.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iotaxo/internal/fleet"
	"iotaxo/internal/obs"
)

// config carries the parsed flags.
type config struct {
	addr             string
	replicas         string
	healthInterval   time.Duration
	probeTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	adminToken       string
	traceSample      float64
	traceBuffer      int
	sloSpec          string
	pprofAddr        string
	shutdownGrace    time.Duration
	logFormat        string
	logLevel         string

	statePath string
	leaseTTL  time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8070", "listen address")
	flag.StringVar(&cfg.replicas, "replicas", "",
		"comma-separated static replica base URLs, e.g. http://10.0.0.7:8080,http://10.0.0.8:8080 (optional: replicas can self-register via POST /v1/fleet/register instead)")
	flag.DurationVar(&cfg.healthInterval, "health-interval", time.Second,
		"replica health/stats probe period")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", 2*time.Second,
		"per-probe timeout")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", 3,
		"consecutive failures (probes or sub-requests) that eject a replica from the ring")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 5*time.Second,
		"how long an ejected replica stays out before a half-open probe may readmit it")
	flag.StringVar(&cfg.adminToken, "admin-token", os.Getenv("IOSERVE_ADMIN_TOKEN"),
		"bearer token gating this router's trace endpoints and sent to the replicas' admin-gated trace views (default $IOSERVE_ADMIN_TOKEN; empty leaves both open)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0,
		"fraction of routed requests head-sampled into the trace ring; errors and slow requests are always kept (0 disables router tracing and /v1/trace)")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 256, "retained router-trace ring capacity")
	flag.StringVar(&cfg.sloSpec, "slo", "",
		"SLO objectives as 'class:p99=25ms,avail=99.9[;class:...]'; enables /v1/slo and iorouter_slo_* series (empty disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "",
		"serve net/http/pprof on this address (e.g. localhost:6061; empty disables)")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 10*time.Second,
		"drain window for in-flight requests after SIGINT/SIGTERM")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log verbosity: debug, info, warn, or error")
	flag.StringVar(&cfg.statePath, "fleet-state", "",
		"path for persisted membership snapshots; a restarted router rebuilds its ring from it, quarantining entries behind a health probe (empty disables persistence)")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 3*time.Second,
		"heartbeat lease granted to self-registered replicas; a member silent for a full TTL is ejected")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "iorouter:", err)
		os.Exit(1)
	}
}

// traceEvery converts the -trace-sample fraction to the tracer's 1-in-N
// head-sampling period (0 = disabled), mirroring ioserve's flag.
func traceEvery(sample float64) int {
	if sample <= 0 {
		return 0
	}
	if sample >= 1 {
		return 1
	}
	return int(math.Round(1 / sample))
}

func run(cfg config) error {
	logger, err := obs.NewLogger(os.Stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		return err
	}
	// -replicas and self-registered members are built by this one
	// factory: both dial over HTTP(S) with the same admin token.
	backend := func(name, baseURL string) (fleet.Predictor, error) {
		u := strings.TrimRight(strings.TrimSpace(baseURL), "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("replica %q: want an http(s) base URL, got %q", name, baseURL)
		}
		return fleet.NewRemote(name, u, fleet.RemoteConfig{AdminToken: cfg.adminToken}), nil
	}
	var backends []fleet.Predictor
	if strings.TrimSpace(cfg.replicas) != "" {
		for _, raw := range strings.Split(cfg.replicas, ",") {
			u := strings.TrimRight(strings.TrimSpace(raw), "/")
			if u == "" {
				return fmt.Errorf("-replicas has an empty entry")
			}
			// The host:port part names the replica in the ring, metrics, and
			// response shares.
			b, err := backend(strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://"), u)
			if err != nil {
				return err
			}
			backends = append(backends, b)
		}
	}
	var slo *obs.SLO
	if cfg.sloSpec != "" {
		specs, err := obs.ParseSLO(cfg.sloSpec)
		if err != nil {
			return err
		}
		slo = obs.NewSLO(specs)
		for _, s := range specs {
			logger.Info("SLO objective on", "objective", s.String())
		}
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		HealthInterval:   cfg.healthInterval,
		ProbeTimeout:     cfg.probeTimeout,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		TraceEvery:       traceEvery(cfg.traceSample),
		TraceBuffer:      cfg.traceBuffer,
		Logger:           logger,
		LeaseTTL:         cfg.leaseTTL,
		StatePath:        cfg.statePath,
		Backend:          backend,
	}, backends...)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Stop()
	logger.Info("fleet routing on",
		"static_replicas", len(backends),
		"health_interval", cfg.healthInterval, "lease_ttl", cfg.leaseTTL,
		"breaker_threshold", cfg.breakerThreshold, "breaker_cooldown", cfg.breakerCooldown)
	if cfg.traceSample > 0 {
		logger.Info("router tracing on",
			"head_sample_every", traceEvery(cfg.traceSample), "ring", cfg.traceBuffer)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var psrv *http.Server
	if cfg.pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling exposure
		// is an explicit, separately firewallable choice — never a route
		// that leaks onto the routing port. Mirrors ioserve's -pprof-addr.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Addr: cfg.pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", cfg.pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}
	logger.Info("listening", "addr", cfg.addr)
	server := &http.Server{
		Addr:              cfg.addr,
		Handler:           fleet.NewHandler(rt, fleet.HandlerConfig{AdminToken: cfg.adminToken, SLO: slo}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stopSignals()
	logger.Info("shutting down", "grace", cfg.shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
	defer cancel()
	if psrv != nil {
		_ = psrv.Shutdown(sctx)
	}
	if err := server.Shutdown(sctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	logger.Info("shutdown complete")
	return nil
}

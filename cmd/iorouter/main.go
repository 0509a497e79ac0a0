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
// gauges. -slo tracks the predict class with multi-window burn rates at
// GET /v1/slo. The flags iorouter shares with ioserve, and the listen,
// pprof and SIGINT/SIGTERM drain sequence, are cmd/internal/proc's.
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
	"os"
	"strings"
	"time"

	"iotaxo/cmd/internal/proc"
	"iotaxo/internal/fleet"
)

// config carries the parsed flags: the process shell's and iorouter's own.
type config struct {
	*proc.Shell
	replicas         string
	healthInterval   time.Duration
	probeTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	statePath string
	leaseTTL  time.Duration
}

func main() {
	cfg := newConfig(flag.CommandLine)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "iorouter:", err)
		os.Exit(1)
	}
}

// newConfig registers iorouter's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	cfg := &config{Shell: proc.Register(fs, ":8070")}
	fs.StringVar(&cfg.replicas, "replicas", "",
		"comma-separated static replica base URLs, e.g. http://10.0.0.7:8080,http://10.0.0.8:8080 (optional: replicas can self-register via POST /v1/fleet/register instead)")
	fs.DurationVar(&cfg.healthInterval, "health-interval", time.Second,
		"replica health/stats probe period")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", 2*time.Second,
		"per-probe timeout")
	fs.IntVar(&cfg.breakerThreshold, "breaker-threshold", 3,
		"consecutive failures (probes or sub-requests) that eject a replica from the ring")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 5*time.Second,
		"how long an ejected replica stays out before a half-open probe may readmit it")
	fs.StringVar(&cfg.statePath, "fleet-state", "",
		"path for persisted membership snapshots; a restarted router rebuilds its ring from it, quarantining entries behind a health probe (empty disables persistence)")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 3*time.Second,
		"heartbeat lease granted to self-registered replicas; a member silent for a full TTL is ejected")
	return cfg
}

func run(cfg *config) error {
	slo, err := cfg.Setup()
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
		return fleet.NewRemote(name, u, fleet.RemoteConfig{AdminToken: cfg.AdminToken}), nil
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
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		HealthInterval:   cfg.healthInterval,
		ProbeTimeout:     cfg.probeTimeout,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		TraceEvery:       cfg.TraceEvery(),
		TraceBuffer:      cfg.TraceBuffer,
		Logger:           cfg.Logger,
		LeaseTTL:         cfg.leaseTTL,
		StatePath:        cfg.statePath,
		Backend:          backend,
	}, backends...)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Stop()
	cfg.Logger.Info("fleet routing on",
		"static_replicas", len(backends),
		"health_interval", cfg.healthInterval, "lease_ttl", cfg.leaseTTL,
		"breaker_threshold", cfg.breakerThreshold, "breaker_cooldown", cfg.breakerCooldown)
	return cfg.Serve(context.Background(), fleet.NewHandler(rt, fleet.HandlerConfig{AdminToken: cfg.AdminToken, SLO: slo}), nil, nil)
}

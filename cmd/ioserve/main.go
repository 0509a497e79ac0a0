// Command ioserve is the online I/O-throughput prediction service: it loads
// a registry of serialized models and serves predictions with taxonomy
// guardrails over HTTP.
//
// Usage:
//
//	ioserve -models ./registry                    # serve an existing registry
//	ioserve -bootstrap -models ./registry         # train demo bundles, then serve
//	ioserve -bootstrap -jobs 2000 -addr :9000     # smaller bootstrap, custom port
//	ioserve -models ./registry -reload-interval 5s -shadow-fraction 0.1
//	ioserve -models ./registry -reload-interval 5s -shadow-fraction 0.1 \
//	        -drift-interval 30s -auto-promote -auto-rollback \
//	        -admin-token $IOSERVE_ADMIN_TOKEN
//	ioserve -models ./registry -trace-sample 0.01 -pprof-addr localhost:6060 \
//	        -log-format json -log-level debug
//	ioserve -models ./registry -router http://127.0.0.1:8070 \
//	        -advertise http://10.0.0.5:8080      # join an iorouter fleet
//
// Endpoints:
//
//	POST /v1/predict            {"system":"theta","rows":[[...]]}  (or "row":[...])
//	GET  /v1/models             registry listing
//	GET  /v1/versions           lifecycle view (active/latest, shadow deltas)
//	POST /v1/versions/promote   {"system":"theta","version":2}      [admin]
//	POST /v1/versions/rollback  {"system":"theta"}                  [admin]
//	POST /v1/versions/reload    force a registry reload poll        [admin]
//	GET  /v1/trace              retained request traces             [admin]
//	GET  /v1/trace/{id}         one trace's span tree               [admin]
//	GET  /v1/drift              drift-monitor status + decision log
//	POST /v1/drift/retrain      {"system":"theta"} force a retrain  [admin]
//	POST /v1/feedback           ground-truth ingestion              [admin]
//	GET  /v1/resilience         admission gate + breaker status     [admin]
//	GET  /v1/slo                SLO compliance, burn rates, alerts
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text format
//
// With -reload-interval the registry directory is polled for new, changed,
// or removed version directories and the live registry swapped without a
// restart; with -shadow-fraction a deterministic slice of served traffic
// is mirrored to the adjacent model versions and the online error deltas
// exposed at /metrics and /v1/versions.
//
// With -drift-interval the closed-loop control plane (internal/drift) runs
// on top: live traffic is compared per feature against the training-time
// reference histograms (PSI/KS), ground truth posted to /v1/feedback is
// tracked against the noise floor, confirmed drift triggers an automated
// retrain published through the registry protocol, and the policy engine
// auto-promotes a clean candidate (-auto-promote) or rolls back a
// regressing one (-auto-rollback).
//
// Observability: -trace-sample enables request tracing — every request's
// per-stage latency split lands in the /metrics stage histograms, and
// tail-sampling retains errors, OoD-flagged requests, requests slower than
// the moving p99, plus the given head-sampled fraction in a ring served at
// GET /v1/trace. -slo tracks the predict and control classes with
// multi-window burn rates at GET /v1/slo and ioserve_slo_* series.
//
// Resilience: -admission-max-inflight bounds concurrent predict work and
// sheds the excess with 429 + Retry-After (control traffic — feedback,
// admin — is shed only at twice the cap); -admission-p99 adds a latency
// trigger on the moving p99 of admitted requests. -default-deadline
// propagates a per-request deadline end to end (clients can lower it with
// X-Request-Timeout-Ms); expired requests are dropped before evaluation
// and answered 504. The reloader and the drift retrain chain run behind
// circuit breakers with jittered backoff, visible at GET /v1/resilience.
// -chaos injects faults (latency, errors, panics, registry corruption,
// plus hbloss=/partition= membership faults) for resilience testing.
//
// Fleet membership: -router self-registers this replica with an iorouter
// and keeps a heartbeat lease renewed (jittered; -heartbeat-interval
// overrides the router's suggested cadence, -advertise sets the URL the
// router dials back when the listen address is not routable). A heartbeat
// answered 404 re-registers automatically. SIGTERM then becomes a
// coordinated drain: the replica deregisters first and waits for the
// router to confirm its in-flight rows finished before the local HTTP
// drain — zero lost requests; if the router is unreachable the replica
// exits anyway and its lease expires.
//
// The flags ioserve shares with iorouter (-addr, -admin-token, which gates
// every [admin] endpoint, -trace-sample, -trace-buffer, -slo, -pprof-addr,
// -shutdown-grace, -log-format, -log-level) and the listen, pprof and
// SIGINT/SIGTERM drain sequence are the process shell's, cmd/internal/proc.
//
// Every prediction carries the paper's taxonomy guardrail: the deep
// ensemble's epistemic uncertainty with an OoD flag (Sec. VIII) and a
// noise-floor annotation from concurrent duplicates (Sec. IX), plus a
// cache-hit indicator from the duplicate-aware prediction cache (Sec. VI).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"iotaxo/cmd/internal/proc"
	"iotaxo/internal/drift"
	"iotaxo/internal/fleet"
	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
	"iotaxo/internal/serve"
)

// config carries the parsed flags: the process shell's and ioserve's own.
type config struct {
	*proc.Shell
	models         string
	bootstrap      bool
	jobs           int
	versions       int
	workers        int
	cacheSize      int
	seed           uint64
	reloadInterval time.Duration
	shadowFraction float64
	driftInterval  time.Duration
	psiThreshold   float64
	autoPromote    bool
	autoRollback   bool
	retrainWindow  int

	admissionMax    int
	admissionP99    time.Duration
	defaultDeadline time.Duration
	chaosSpec       string

	routerURL         string
	advertiseURL      string
	heartbeatInterval time.Duration
}

func main() {
	cfg := newConfig(flag.CommandLine)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ioserve:", err)
		os.Exit(1)
	}
}

// newConfig registers ioserve's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	cfg := &config{Shell: proc.Register(fs, ":8080")}
	fs.StringVar(&cfg.models, "models", "", "model registry directory")
	fs.BoolVar(&cfg.bootstrap, "bootstrap", false, "train demo bundles into -models before serving")
	fs.IntVar(&cfg.jobs, "jobs", 4000, "jobs per bootstrapped system")
	fs.IntVar(&cfg.versions, "versions", 2, "bootstrapped versions per system")
	fs.IntVar(&cfg.workers, "workers", 2, "how many requests evaluate their cache misses at once")
	fs.IntVar(&cfg.cacheSize, "cache", 1<<16, "duplicate cache capacity in entries, at most an eighth of them rows that have not hit, a 64th until evicted rows come back (0 disables)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "bootstrap seed")
	fs.DurationVar(&cfg.reloadInterval, "reload-interval", 0,
		"poll -models for new/changed/removed versions and swap them live (0 disables)")
	fs.Float64Var(&cfg.shadowFraction, "shadow-fraction", 0,
		"fraction of active-version rows mirrored to adjacent versions for online comparison (0 disables)")
	fs.DurationVar(&cfg.driftInterval, "drift-interval", 0,
		"drift-detection window period; enables the closed-loop control plane (0 disables)")
	fs.Float64Var(&cfg.psiThreshold, "drift-psi-threshold", 0.2,
		"per-feature PSI above which a window counts toward a drift signal")
	fs.BoolVar(&cfg.autoPromote, "auto-promote", false,
		"let the policy engine promote a retrained candidate after k clean windows")
	fs.BoolVar(&cfg.autoRollback, "auto-rollback", false,
		"let the policy engine roll back a regressing version after k bad windows")
	fs.IntVar(&cfg.retrainWindow, "retrain-window", 4096,
		"feedback rows buffered per system for automated retraining")
	fs.IntVar(&cfg.admissionMax, "admission-max-inflight", 0,
		"admission-control soft cap on concurrent predict requests; above it predict traffic is shed with 429 (0 disables admission control)")
	fs.DurationVar(&cfg.admissionP99, "admission-p99", 0,
		"shed predict traffic when the moving p99 of admitted requests exceeds this while the gate is above half its soft cap (0 disables the latency trigger)")
	fs.DurationVar(&cfg.defaultDeadline, "default-deadline", 0,
		"per-request deadline applied to predict requests; clients may lower it with the "+serve.DeadlineHeader+" header (0 disables)")
	fs.StringVar(&cfg.chaosSpec, "chaos", "",
		`fault-injection spec, e.g. "latency=5ms:0.2,error=0.05,panic=0.01,corrupt=0.1,hbloss=0.3,partition=0.1" (empty disables; never set in production)`)
	fs.StringVar(&cfg.routerURL, "router", "",
		"iorouter base URL to self-register with (dynamic fleet membership; empty disables)")
	fs.StringVar(&cfg.advertiseURL, "advertise", "",
		"base URL the router should dial back for this replica (default derives http://127.0.0.1 from -addr)")
	fs.DurationVar(&cfg.heartbeatInterval, "heartbeat-interval", 0,
		"membership heartbeat cadence (0 takes the router's grant: lease TTL / 3)")
	return cfg
}

func run(cfg *config) error {
	slo, err := cfg.Setup()
	if err != nil {
		return err
	}
	logger := cfg.Logger

	var inj *chaos.Injector
	if cfg.chaosSpec != "" {
		ccfg, err := chaos.Parse(cfg.chaosSpec)
		if err != nil {
			return err
		}
		inj = chaos.NewInjector(ccfg, int64(cfg.seed))
		if inj != nil {
			logger.Warn("chaos injection ENABLED — never run this in production", "spec", cfg.chaosSpec)
		}
	}

	var reg *serve.Registry
	switch {
	case cfg.bootstrap:
		bcfg := serve.DefaultBootstrap()
		bcfg.Jobs = cfg.jobs
		bcfg.Versions = cfg.versions
		bcfg.Seed = cfg.seed
		logger.Info("bootstrapping registry",
			"systems", fmt.Sprint(bcfg.Systems), "jobs", bcfg.Jobs, "versions", bcfg.Versions)
		reg, err = serve.Bootstrap(bcfg, cfg.models)
		if err != nil {
			return err
		}
		if cfg.models != "" {
			logger.Info("registry persisted", "dir", cfg.models)
		}
	case cfg.models != "":
		reg, err = serve.LoadRegistry(cfg.models)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -models or -bootstrap is required")
	}

	svc := serve.NewService(reg, serve.Options{
		Workers:        cfg.workers,
		CacheSize:      cfg.cacheSize,
		ShadowFraction: cfg.shadowFraction,
		TraceEvery:     cfg.TraceEvery(),
		TraceBuffer:    cfg.TraceBuffer,
		Logger:         logger,
		Chaos:          inj,
	})
	defer svc.Close()
	svc.Metrics().RegisterCollector(obs.CollectRuntime)

	// The resilience set aggregates the admission gate and the control-plane
	// breakers behind one /metrics collector and the /v1/resilience view.
	res := resilience.NewSet()
	svc.Metrics().RegisterCollector(res.Collect)
	var gate *resilience.Gate
	if cfg.admissionMax > 0 {
		gate = resilience.NewGate(resilience.GateConfig{
			MaxInflight:  cfg.admissionMax,
			P99Threshold: cfg.admissionP99,
		})
		res.SetGate(gate)
		logger.Info("admission control on",
			"max_inflight", cfg.admissionMax, "p99_threshold", cfg.admissionP99)
	}

	if cfg.reloadInterval > 0 {
		if cfg.models == "" {
			return fmt.Errorf("-reload-interval needs -models (an on-disk registry to watch)")
		}
		rel, err := serve.NewReloader(svc, cfg.models, cfg.reloadInterval)
		if err != nil {
			return err
		}
		rel.SetResilience(res.NewBreaker("reload", resilience.BreakerConfig{}))
		rel.Start()
		logger.Info("registry reloading on", "dir", cfg.models, "interval", cfg.reloadInterval)
	}
	if cfg.shadowFraction > 0 {
		logger.Info("shadow mirroring on", "fraction", cfg.shadowFraction)
	}

	var ctl *drift.Controller
	if cfg.driftInterval > 0 {
		dcfg := drift.Config{
			Root:          cfg.models,
			Interval:      cfg.driftInterval,
			PSIThreshold:  cfg.psiThreshold,
			AutoPromote:   cfg.autoPromote,
			AutoRollback:  cfg.autoRollback,
			RetrainWindow: cfg.retrainWindow,
			Breaker:       res.NewBreaker("retrain", resilience.BreakerConfig{}),
			Logger:        logger,
		}
		if cfg.shadowFraction > 0 {
			// With mirroring on, demand shadow evidence before verdicts.
			dcfg.MinMirrored = 16
		}
		ctl = drift.New(svc, dcfg)
		ctl.Start()
		defer ctl.Close()
		logger.Info("drift control plane on",
			"window", cfg.driftInterval, "psi", cfg.psiThreshold,
			"auto_promote", cfg.autoPromote, "auto_rollback", cfg.autoRollback)
	}
	handler := newHandler(svc, serve.HandlerConfig{
		AdminToken:      cfg.AdminToken,
		Gate:            gate,
		Resilience:      res,
		DefaultDeadline: cfg.defaultDeadline,
	}, ctl, slo)
	if cfg.AdminToken != "" {
		logger.Info("admin endpoints require a bearer token")
	}
	if cfg.defaultDeadline > 0 {
		logger.Info("request deadline on", "default", cfg.defaultDeadline, "header", serve.DeadlineHeader)
	}
	for _, info := range reg.List() {
		logger.Info("model loaded",
			"system", info.System, "version", info.Version, "features", info.Features,
			"trees", info.Trees, "ensemble", info.EnsembleSize,
			"eu_threshold", info.Guard.EUThreshold, "active", info.Active)
	}

	// Dynamic fleet membership: announce to the router once the listener is
	// bound, heartbeat the lease, and on shutdown run the coordinated drain
	// before the local HTTP drain.
	var agent *fleet.Agent
	if cfg.routerURL != "" {
		advertise := cfg.advertiseURL
		if advertise == "" {
			advertise = deriveAdvertise(cfg.Addr)
			if advertise == "" {
				return fmt.Errorf("-advertise is required with -router when -addr (%q) has no usable host", cfg.Addr)
			}
		}
		// The router names remote replicas by host:port of the base URL.
		name := strings.TrimPrefix(strings.TrimPrefix(advertise, "http://"), "https://")
		var systems []string
		for _, info := range reg.List() {
			systems = append(systems, info.System)
		}
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			RouterURL:    cfg.routerURL,
			Name:         name,
			AdvertiseURL: advertise,
			Capabilities: map[string]string{
				"service": "ioserve",
				"systems": strings.Join(systems, ","),
			},
			AdminToken: cfg.AdminToken,
			Heartbeat:  cfg.heartbeatInterval,
			Logger:     logger,
			Chaos:      inj,
		})
		if err != nil {
			return err
		}
		logger.Info("fleet membership on", "router", cfg.routerURL, "advertise", advertise, "name", name)
	}
	started := func(ctx context.Context) {
		if agent != nil {
			go agent.Run(ctx)
		}
		if inj != nil && cfg.models != "" {
			go corruptRegistry(ctx, inj, cfg.models, logger)
		}
	}
	var drain func(context.Context)
	if agent != nil {
		// Coordinated drain, step 1: deregister and wait for the router to
		// confirm the arc handoff — after this no new rows arrive, so the
		// local HTTP drain only finishes stragglers. If the router is
		// unreachable the lease expires and ejects us the hard way; exiting
		// anyway is safe. The deferred Close calls then stop the drift loop
		// and the reloader and wait out any running evaluation.
		drain = func(ctx context.Context) {
			if resp, err := agent.Drain(ctx); err != nil {
				logger.Warn("fleet drain handshake failed; relying on lease expiry", "err", err)
			} else {
				logger.Info("fleet drain confirmed", "drained", resp.Drained, "pending_rows", resp.PendingRows)
			}
		}
	}
	return cfg.Serve(context.Background(), handler, started, drain)
}

// newHandler mounts ioserve's surface on one mux: serve's handler, the drift
// control plane's endpoints when ctl is non-nil, and /v1/slo. slo observes
// predict calls, posted and framed alike, in serve's predict core, and the
// drift endpoints through the SLO middleware as class control (/v1/feedback
// and /v1/drift*); the SLO series join svc's /metrics.
func newHandler(svc *serve.Service, hcfg serve.HandlerConfig, ctl *drift.Controller, slo *obs.SLO) http.Handler {
	mux := http.NewServeMux()
	hcfg.SLO = slo
	mux.Handle("/", serve.NewHandler(svc, hcfg))
	if ctl != nil {
		// Drift admin and feedback are control-class traffic: the gate sheds
		// them only at the hard limit, so feedback keeps flowing while
		// predict load is being shed.
		control := func(*http.Request) string { return "control" }
		driftHandler := obs.SLOMiddleware(slo, control, resilience.AdmitHandler(hcfg.Gate, ctl.Handler(hcfg.AdminToken)))
		mux.Handle("/v1/drift", driftHandler)
		mux.Handle("/v1/drift/", driftHandler)
		mux.Handle("/v1/feedback", driftHandler)
	}
	serve.MountSLO(mux, slo, "ioserve")
	svc.Metrics().RegisterCollector(func(dst []obs.PromFamily) []obs.PromFamily { return slo.Collect("ioserve", dst) })
	return mux
}

// corruptRegistry is registry-corruption chaos: once a second it rolls the
// corrupt dice and, on a hit, drops a bogus version directory into the
// watched registry for the reloader's skip-and-backoff path to chew on,
// until ctx ends.
func corruptRegistry(ctx context.Context, inj *chaos.Injector, dir string, logger *slog.Logger) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if !inj.CorruptTick() {
				continue
			}
			if bad, err := inj.CorruptRegistry(dir); err != nil {
				logger.Warn("chaos registry corruption failed", "err", err)
			} else {
				logger.Warn("chaos corrupted registry", "dir", bad)
			}
		}
	}
}

// deriveAdvertise guesses a loopback advertise URL from -addr for
// single-host fleets (":8081" → "http://127.0.0.1:8081"). Addresses with
// an explicit host keep it.
func deriveAdvertise(addr string) string {
	host, port, ok := strings.Cut(addr, ":")
	if !ok || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + host + ":" + port
}

// Package drift is the closed-loop continual-learning control plane over
// the serving subsystem (internal/serve). The paper's taxonomy names
// temporal concept drift and out-of-distribution inputs as dominant,
// *silent* error sources in deployed HPC I/O models; PR 3's shadow
// evaluation gave the repo the measurement half. This package closes the
// loop with three cooperating pieces:
//
//	detectors    — consume live prediction traffic (serve.Observer) and
//	               delayed ground-truth feedback (POST /v1/feedback),
//	               maintaining per-system, per-feature window statistics:
//	               PSI and KS against the training-time reference
//	               histograms persisted with each bundle, plus rolling
//	               absolute log-error tracked against the system's
//	               measured noise floor — error is only alarmed when it
//	               exceeds what irreducible noise explains (detector.go)
//	orchestrator — on confirmed drift, turns the accumulated feedback
//	               window into a training frame, hands it to serve.Build
//	               (the bootstrap's own builder, here sweeping a small
//	               warm-started GBT grid and measuring the noise floor on
//	               the window), and publishes the new version as one
//	               renamed bundle file so the live Reloader
//	               swaps it in with zero downtime; the incumbent is pinned
//	               first, so the candidate stages as a shadow-evaluated
//	               canary rather than serving untested (retrain.go)
//	policy       — watches the staged candidate's evidence (champion/
//	               challenger error on feedback rows, canary shadow
//	               deltas) and auto-promotes after k consecutive clean
//	               windows; after any promotion it keeps watching and
//	               auto-rolls-back when the served version regresses —
//	               sustained ioserve_shadow_mae_log divergence from its
//	               predecessor or feedback error beyond the noise floor —
//	               for k consecutive windows (policy.go)
//
// Every decision is exposed as ioserve_drift_* series on /metrics
// (metrics.go) and in the GET /v1/drift status report (handler.go).
package drift

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// Lifecycle phases of one monitored system.
const (
	// PhaseStable: watching for drift, no candidate in flight.
	PhaseStable = "stable"
	// PhaseRetraining: a retrain is running in the background.
	PhaseRetraining = "retraining"
	// PhaseStaged: a retrained candidate is published and shadow/feedback
	// evaluated, waiting for enough clean windows to promote.
	PhaseStaged = "staged"
	// PhaseWatching: the active version recently changed; the policy is
	// comparing it against its predecessor for auto-rollback.
	PhaseWatching = "watching"
)

// Config tunes the control plane. The zero value of every field selects a
// sensible default (see withDefaults); AutoPromote/AutoRollback default to
// off — with them off the policy still evaluates and records its verdicts,
// it just does not apply them.
type Config struct {
	// Root is the on-disk registry root new versions are published into
	// (the directory the server's Reloader watches). Empty publishes
	// directly into the in-memory registry — useful for embedding/tests.
	Root string
	// Interval is the window/tick period (default 10s).
	Interval time.Duration
	// PSIThreshold / KSThreshold flag a feature as shifted (defaults 0.2
	// and 0.25).
	PSIThreshold, KSThreshold float64
	// ConfirmWindows is how many consecutive breaching windows confirm
	// drift — one noisy window must not trigger a retrain (default 2).
	ConfirmWindows int
	// MinWindowRows is the minimum observed rows for a window to close
	// (default 50); MinFeedbackRows the minimum feedback rows for an
	// error-based verdict inside a window (default 10).
	MinWindowRows, MinFeedbackRows int
	// ErrorFactor: rolling MAE(log) alarms only above ErrorFactor times
	// the noise-explained MAE (default 2). ErrorMAEFallback is the
	// absolute alarm bar used when the bundle carries no noise sigma
	// (default 0.3).
	ErrorFactor, ErrorMAEFallback float64
	// RetrainWindow caps the feedback row buffer per system (default
	// 4096); MinRetrainRows is the least buffered rows a retrain needs
	// (default 256).
	RetrainWindow, MinRetrainRows int
	// AutoPromote / AutoRollback apply the policy verdicts to the
	// registry instead of only recording them.
	AutoPromote, AutoRollback bool
	// PromoteAfter / RollbackAfter are the consecutive-window counts k
	// (defaults 3 and 3). WatchWindows bounds both evaluation phases: a
	// staged candidate without a promotion verdict within it is abandoned
	// (incumbent stays pinned), and a watched promotion without
	// regression within it is considered kept (default 12).
	PromoteAfter, RollbackAfter, WatchWindows int
	// PromoteSlack: a candidate window is clean when its feedback MAE is
	// at most PromoteSlack times the incumbent's (default 1.0 — the
	// candidate must not be worse).
	PromoteSlack float64
	// RegressFactor: a watched promotion regresses when its feedback MAE
	// exceeds RegressFactor times its predecessor's (default 1.5). The
	// noise-floor bar for this check anchors on the *predecessor's*
	// calibration — a degraded bundle may carry a corrupted (inflated)
	// noise sigma that would otherwise mask its own errors.
	RegressFactor float64
	// RollbackMAELog: a watched version regresses when its shadow
	// mae_log divergence from its predecessor reaches this (default 0.5).
	RollbackMAELog float64
	// MinMirrored, when > 0, additionally requires that many mirrored
	// rows of shadow evidence per window for promote/rollback verdicts
	// (set it when the server runs with -shadow-fraction > 0).
	MinMirrored int
	// Retrain sizes the automated training runs with the bundle builder's
	// own knobs (trees, depth, ensemble size, epochs, workers, seed); zero
	// fields take serve.Build's defaults, and the systems, jobs and
	// versions fields are unused.
	Retrain serve.BootstrapConfig
	// Breaker, when non-nil, circuit-breaks the retrain→publish→promote
	// chain: consecutive retrain failures trip it, suppressing further
	// automatic launches until a cooldown probe (ForceRetrain bypasses it —
	// an operator's forced launch is a deliberate manual probe). Create it
	// from the process's resilience.Set so it shows up on /metrics and
	// /v1/resilience.
	Breaker *resilience.Breaker
	// PublishRetries bounds the retried SaveVersion publish attempts of a
	// successfully trained candidate (default 3): the training work is
	// minutes, the publish is an fsync — a transient registry-root hiccup
	// must not discard the model.
	PublishRetries int
	// Logger receives one structured line per control-plane decision
	// (nil discards).
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	deff(&c.PSIThreshold, 0.2)
	deff(&c.KSThreshold, 0.25)
	def(&c.ConfirmWindows, 2)
	def(&c.MinWindowRows, 50)
	def(&c.MinFeedbackRows, 10)
	deff(&c.ErrorFactor, 2.0)
	deff(&c.ErrorMAEFallback, 0.3)
	def(&c.RetrainWindow, 4096)
	def(&c.MinRetrainRows, 256)
	def(&c.PromoteAfter, 3)
	def(&c.RollbackAfter, 3)
	def(&c.WatchWindows, 12)
	deff(&c.PromoteSlack, 1.0)
	deff(&c.RegressFactor, 1.5)
	deff(&c.RollbackMAELog, 0.5)
	def(&c.PublishRetries, 3)
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Controller is the control plane over one serving Service. Create with
// New, start the tick loop with Start (or drive it manually with Tick in
// tests), stop with Close.
type Controller struct {
	svc *serve.Service
	cfg Config

	mu      sync.Mutex
	systems map[string]*systemState

	decMu     sync.Mutex
	decisions []Decision

	startOnce    sync.Once
	closeOnce    sync.Once
	stop         chan struct{}
	done         chan struct{}
	started      bool
	retrains     sync.WaitGroup
	unregMetrics func()
}

// New wires a controller over svc: it attaches itself as the service's
// traffic observer and registers its metric series with the service's
// /metrics writer.
func New(svc *serve.Service, cfg Config) *Controller {
	c := &Controller{
		svc:     svc,
		cfg:     cfg.withDefaults(),
		systems: make(map[string]*systemState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	svc.SetObserver(c)
	c.unregMetrics = svc.Metrics().RegisterCollector(c.Collect)
	return c
}

// Start launches the tick loop (idempotent).
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.started = true
		go c.loop()
	})
}

// Close detaches the observer and metrics collector, stops the tick
// loop, and waits for any in-flight retrain to finish.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.svc.SetObserver(nil)
	c.unregMetrics()
	c.closeOnce.Do(func() { close(c.stop) })
	if c.started {
		<-c.done
	}
	c.retrains.Wait()
}

func (c *Controller) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.Tick()
		}
	}
}

// Tick closes every system's current window, evaluates the detector and
// policy on it, and launches retrains for confirmed drift. Exported so
// tests (and embedders with their own scheduling) can drive the control
// plane deterministically.
func (c *Controller) Tick() {
	reg := c.svc.Registry()
	for _, system := range reg.Systems() {
		st := c.state(system)
		c.tickSystem(st, reg)
	}
}

// state returns (creating on first use) a system's monitor state.
func (c *Controller) state(system string) *systemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.systems[system]
	if !ok {
		st = newSystemState(system, c.cfg)
		c.systems[system] = st
	}
	return st
}

// states snapshots the monitored systems, sorted by name.
func (c *Controller) states() []*systemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*systemState, 0, len(c.systems))
	for _, st := range c.systems {
		out = append(out, st)
	}
	sortStates(out)
	return out
}

// ForceRetrain launches a retrain for a system immediately, bypassing the
// drift confirmation (the POST /v1/drift/retrain admin action). It still
// requires enough buffered feedback rows to train from.
func (c *Controller) ForceRetrain(system string) error {
	if _, err := c.svc.Registry().ActiveVersion(system); err != nil {
		return err
	}
	st := c.state(system)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.phase == PhaseRetraining {
		return fmt.Errorf("drift: %s is already retraining", system)
	}
	if n := st.feedback.Len(); n < c.cfg.MinRetrainRows {
		return fmt.Errorf("drift: %s has %d buffered feedback rows, need >= %d", system, n, c.cfg.MinRetrainRows)
	}
	c.launchRetrainLocked(st, "forced")
	return nil
}

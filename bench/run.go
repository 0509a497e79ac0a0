package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"iotaxo/internal/gbt"
)

// config is one run of one workload.
type config struct {
	workload       *workload
	seed           uint64
	windows        int
	window, warm   time.Duration
	setupReps      int
	fillRows       int  // unique rows sent to every replica before the warm-up
	traced         bool // run the traced pass after the measured phase
	ladderRequests int
	fixtureDir     string // the saved bundle
	outDir         string // where the span file goes
}

const (
	windowLen = 2500 * time.Millisecond
	warmupLen = 3 * time.Second
	// setupReps set-ups from the saved fixture before the measured phase,
	// and as many again after it.
	setupReps      = 25
	ladderRequests = 512
	// tracedWindows bounds the measured phase of a traced run, which still
	// has the ladder to climb inside the same time budget.
	tracedWindows = 6
)

// result is what a run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	err       error // why the run is not correct, if it is not
}

// setUp brings the workload's stack up from the saved fixture and pushes one
// verified prediction through it, timing the whole and its parts. No sleeps,
// no polling: a listener accepts as soon as Listen returns.
func setUp(cfg *config, p *pool, v *verifier, s *stream) (*stack, setupTimes, error) {
	var tm setupTimes
	t0 := time.Now()
	st, err := buildStack(cfg.workload.kind, cfg.fixtureDir, &tm)
	if err != nil {
		return nil, tm, err
	}
	d := topDoer(cfg.workload, st, p)
	defer closeDoer(d)
	refs := s.nextRefs(nil)
	t1 := time.Now()
	rep, err := d.do(refs, true)
	if err == nil {
		err = v.check(refs, rep)
	}
	if err != nil {
		st.close()
		return nil, tm, fmt.Errorf("first prediction: %w", err)
	}
	tm.firstPredict = time.Since(t1)
	tm.total = time.Since(t0)
	return st, tm, nil
}

// setups collects the repeated set-ups of one run.
type setups struct {
	cfg    *config
	p      *pool
	v      *verifier
	s      *stream
	totals []float64
	loads  []float64
	firsts []float64
}

// repeat sets the stack up n more times and returns the last one, still
// up; the others are closed as soon as they are timed.
func (su *setups) repeat(n int) (*stack, error) {
	var st *stack
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		var tm setupTimes
		var err error
		if st, tm, err = setUp(su.cfg, su.p, su.v, su.s); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(su.totals), err)
		}
		su.totals = append(su.totals, tm.total.Seconds())
		su.loads = append(su.loads, tm.loadRegistry.Seconds())
		su.firsts = append(su.firsts, tm.firstPredict.Seconds())
	}
	return st, nil
}

// run executes one workload once: set-ups, warm-up, the measured phase with
// tracing off, set-ups again and, if asked, the traced pass.
func run(cfg *config, p *pool, ref *gbt.Model) *result {
	res := &result{metrics: map[string]float64{}}
	if err := measure(cfg, p, ref, res); err != nil {
		res.attempted++ // the operation that failed
		res.failed++
		res.err = err
	}
	return res
}

func measure(cfg *config, p *pool, ref *gbt.Model, res *result) error {
	m := res.metrics
	w := cfg.workload
	v := newVerifier(ref, p)

	// Half of the set-ups come before the measured phase and half after
	// it, so that they sample the machine ~25 s apart; the last stack of
	// the first half is the one measured.
	su := &setups{cfg: cfg, p: p, v: v, s: newStream(p, w.shape, cfg.seed, laneSetup)}
	st, err := su.repeat(cfg.setupReps)
	if err != nil {
		return err
	}
	ph, err := measurePhase(cfg, p, ref, st)
	st.close()
	if err != nil {
		return err
	}
	res.attempted += ph.requests
	if cfg.setupReps > 1 {
		if st, err = su.repeat(cfg.setupReps); err != nil {
			return err
		}
		st.close()
	}
	res.attempted += len(su.totals)
	// Set-up is the same work every time and interference only ever adds
	// to it, so the fastest repetition is the estimate: on this box the
	// quartile of 30 moves 50 % between a quiet and a busy minute, the
	// minimum under 10 %.
	m["setup_s"] = slices.Min(su.totals)
	m["setup.load_registry_s"] = slices.Min(su.loads)
	m["setup.first_predict_s"] = slices.Min(su.firsts)
	t0 := time.Now()
	ref.Compile()
	m["setup.compile_flat_s"] = time.Since(t0).Seconds()

	rowsPerS := make([]float64, len(ph.windows))
	p50, p99 := make([]float64, len(ph.windows)), make([]float64, len(ph.windows))
	samples := ph.windows[0].samples
	for i, win := range ph.windows {
		rowsPerS[i], p50[i], p99[i] = win.rowsPerS, win.p50ms, win.p99ms
		samples = min(samples, win.samples)
		fmt.Fprintf(os.Stderr, "window %2d: %10.1f rows/s  p50 %8.4f ms  p99 %8.4f ms  %6d samples\n", i, win.rowsPerS, win.p50ms, win.p99ms, win.samples)
	}
	m["rows_per_s"] = fastQuartile(rowsPerS, true)
	m["p50_ms"] = fastQuartile(p50, false)
	m["p99_ms"] = fastQuartile(p99, false)
	m["peak_rss_mb"] = ph.peakRSSMB

	rows := float64(ph.rows)
	m["serve.cache_hit_ratio"] = ph.hitRatio
	m["proc.cpu_us_per_row"] = float64(ph.proc.cpu.Microseconds()) / rows
	m["allocs_per_row"] = float64(ph.proc.mallocs) / rows
	m["alloc_bytes_per_row"] = float64(ph.proc.allocBytes) / rows
	m["go.gc_cycles"] = float64(ph.proc.gcCycles)
	m["go.gc_pause_ms"] = float64(ph.proc.gcPause.Nanoseconds()) / 1e6
	m["bench.client_cpu_share"] = div(float64(ph.clientNs), float64(ph.proc.cpu.Nanoseconds()))
	m["bench.machine_slowdown"] = ph.slowdown
	m["bench.window_samples_min"] = float64(samples)
	m["bench.verified_share"] = float64(ph.verified) / float64(ph.requests)
	m["bench.window_spread"] = 0
	if len(rowsPerS) > 1 {
		m["bench.window_spread"] = spread(rowsPerS)
	}

	if cfg.traced {
		n, err := runLadder(cfg, p, v, m)
		res.attempted += n
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
	}
	return nil
}

// measurePhase runs the measured phase against st and checks what only the
// server side can tell: the cache hit share and the router's failovers.
func measurePhase(cfg *config, p *pool, ref *gbt.Model, st *stack) (*phase, error) {
	w := cfg.workload
	callers := make([]*caller, numCallers)
	for i := range callers {
		d := topDoer(w, st, p)
		defer closeDoer(d)
		callers[i] = newCaller(newStream(p, w.shape, cfg.seed, i), d, newVerifier(ref, p), cfg.windows)
	}
	if err := st.fillCaches(p, cfg.seed, cfg.fillRows); err != nil {
		return nil, fmt.Errorf("filling the caches: %w", err)
	}
	// Make the hot set resident before anything is counted, so that the
	// hit share is the stream's from the first window on.
	if err := callers[0].s.loadHotSet(callers[0].d); err != nil {
		return nil, fmt.Errorf("loading the hot set: %w", err)
	}
	ph := runPhase(callers, st, cfg.warm, cfg.window)
	if ph.err != nil {
		return nil, ph.err
	}
	if ph.hitRatio < w.hitLo || ph.hitRatio > w.hitHi {
		return nil, fmt.Errorf("cache hit ratio %.4f outside [%.2f, %.2f]: the stream is not the workload", ph.hitRatio, w.hitLo, w.hitHi)
	}
	if st.front != nil {
		failovers, err := routerFailovers(st.front.url)
		if err == nil && failovers != 0 {
			err = fmt.Errorf("router reports %v failovers, want 0", failovers)
		}
		if err != nil {
			return nil, err
		}
	}
	return ph, nil
}

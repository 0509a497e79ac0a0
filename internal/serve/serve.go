// Package serve is the online prediction-serving subsystem: it turns the
// repo's offline taxonomy machinery into an HTTP service that predicts I/O
// throughput per job and ships each prediction with its error-source
// diagnosis.
//
// The pipeline per request:
//
//	registry  — versioned, per-system bundles of GBT model + deep
//	            ensemble + scaler + guardrail calibration, loaded from a
//	            directory of sealed, checksum-pinned artifacts (registry.go)
//	cache     — a sharded segmented LRU keyed on the feature-vector
//	            hash (rows that have not hit kept to a 64th, widened to
//	            an eighth as evicted rows come back), held in
//	            flat pointer-free arrays so a full cache is neither
//	            scanned by the collector nor allocated into; the paper's
//	            duplicate-dominance finding (Sec. VI: ~24% of jobs are
//	            exact duplicates) makes this the cheapest prediction path
//	            (cache.go)
//	evaluate  — a request's misses are evaluated on its own goroutine,
//	            once it holds one of Options.Workers slots, on the bundle's
//	            compiled flat GBT engine and its guarding ensemble, all on
//	            pooled buffers (evaluate.go)
//	guard     — every evaluated prediction is annotated with the taxonomy
//	            guardrail: the epistemic OoD flag and the error source it
//	            implies (guard.go)
//	reload    — the registry root is watched by polling; new or rewritten
//	            version directories are loaded, swapped in atomically, and
//	            the bumped system's cache entries invalidated (reload.go)
//	shadow    — a deterministic slice of active-version traffic is
//	            mirrored to the adjacent versions, accumulating online
//	            error deltas for promote/rollback decisions (shadow.go)
//
// server.go exposes the service over HTTP (POST /v1/predict, GET
// /v1/models, GET /v1/versions plus its promote/rollback/reload admin
// actions, /healthz, /metrics); bootstrap.go trains and exports demo
// registries so `ioserve -bootstrap` starts from nothing. Poisson traffic
// with duplicate- and OoD-rate knobs comes from internal/workload.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience/chaos"
)

// Options tune the serving pipeline.
type Options struct {
	// Workers bounds how many requests evaluate their cache misses at once
	// (default 2). A request waits for one of these slots, then evaluates
	// on its own goroutine (evaluate.go).
	Workers int
	// CacheSize is the duplicate cache capacity in entries, of which at
	// most an eighth may be rows that have not hit since they were stored,
	// and a 64th until rows the cache evicted come back; <= 0 disables
	// caching.
	CacheSize int
	// ShadowFraction mirrors this deterministic slice of active-version
	// rows to the adjacent registry versions for online comparison
	// (shadow.go); <= 0 disables mirroring.
	ShadowFraction float64
	// TraceEvery enables request tracing: 1-in-N head sampling into the
	// retained-trace ring on top of the always-keep tail policy (errors,
	// OoD-flagged requests, slower-than-moving-p99 requests). <= 0 disables
	// tracing entirely — the predict path then records stage timings into
	// the /metrics histograms but never touches a Trace.
	TraceEvery int
	// TraceBuffer is the retained-trace ring capacity (default 256).
	TraceBuffer int
	// Chaos wires the fault-injection harness into evaluation
	// (internal/resilience/chaos, the ioserve -chaos flag). Nil — the
	// production default — injects nothing.
	Chaos *chaos.Injector
	// Logger receives the service's structured logs (reload decisions,
	// 5xx failures). Nil discards.
	Logger *slog.Logger
}

// PredictionResult is one served prediction. On the wire (codec.go) it also
// carries Throughput and its guard's ErrorSource, both derived.
type PredictionResult struct {
	// Log10Throughput is the model output (the space models regress in).
	Log10Throughput float64 `json:"log10_throughput"`
	// Guard is the taxonomy guardrail annotation; zero, and absent from the
	// wire, when the bundle has no ensemble.
	Guard Guard `json:"guard,omitzero"`
	// CacheHit reports whether the duplicate cache answered this row.
	CacheHit bool `json:"cache_hit"`
}

// Throughput is the prediction in bytes/s.
func (p PredictionResult) Throughput() float64 { return math.Pow(10, p.Log10Throughput) }

// Observer receives every successfully served request. It is called
// synchronously on the predict path after the response is assembled, so
// implementations must be cheap, non-blocking, and panic-free; anything
// expensive belongs on the observer's own queue. The drift detectors
// (internal/drift) use this to watch the live feature distribution.
//
// rows is only on loan: over HTTP it is the request's pooled row block
// (codec.go), recycled once the response is written. An observer reads it
// during the call and keeps a copy of whatever it wants afterwards.
type Observer interface {
	ObserveServed(mv *ModelVersion, rows [][]float64, results []PredictionResult)
}

// observerBox wraps the interface so it can live in an atomic.Pointer.
type observerBox struct{ obs Observer }

// Service ties registry, cache, evaluation slots, shadow, and metrics into
// the predict path.
type Service struct {
	reg   *Registry
	cache *Cache
	// slots holds one token per evaluation in progress (cap
	// Options.Workers); closed is closed by Close.
	slots  chan struct{}
	closed chan struct{}
	// waiting counts callers waiting for a slot; busy, those waiting or
	// evaluating. Both are /metrics gauges.
	waiting, busy atomic.Int64
	// chaos injects faults into evaluation when wired (nil in production);
	// see internal/resilience/chaos.
	chaos   *chaos.Injector
	shadow  *Shadow
	metrics *Metrics
	// tracer owns request traces; nil when Options.TraceEvery <= 0, and a
	// nil tracer no-ops, so the predict path threads it unconditionally.
	tracer *obs.Tracer
	// logger receives structured service logs (never nil; defaults to a
	// discard logger).
	logger *slog.Logger
	// reloader is attached by NewReloader (nil when reloading is off).
	reloader atomic.Pointer[Reloader]
	// observer is attached by SetObserver (nil when nothing watches).
	observer atomic.Pointer[observerBox]
	// hops are the upgraded router connections (hop.go), drained by Close.
	hops hopSet
}

// NewService wires a service over a loaded registry.
func NewService(reg *Registry, opt Options) *Service {
	m := &Metrics{}
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	s := &Service{
		reg:     reg,
		cache:   NewCache(opt.CacheSize),
		slots:   make(chan struct{}, opt.Workers),
		closed:  make(chan struct{}),
		chaos:   opt.Chaos,
		shadow:  NewShadow(reg, opt.ShadowFraction, m),
		metrics: m,
		logger:  opt.Logger,
		hops:    hopSet{frameBound: hopFrameTimeout, idleBound: hopIdleTimeout},
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	m.QueueDepthFn = func() int { return int(s.waiting.Load()) }
	m.InflightWavesFn = func() int { return int(s.busy.Load()) }
	m.RegisterCollector(s.collectVersions)
	if opt.TraceEvery > 0 {
		s.tracer = obs.NewTracer(obs.Config{
			SampleEvery: opt.TraceEvery,
			RingSize:    opt.TraceBuffer,
		})
		m.RegisterCollector(s.tracer.Collect)
	}
	return s
}

// collectVersions appends each system's serving-default version as a
// gauge, so one metrics scrape carries the topology a fleet router needs —
// publish propagation is observable without a second admin request.
func (s *Service) collectVersions(dst []obs.PromFamily) []obs.PromFamily {
	f := obs.PromFamily{Name: "ioserve_active_version", Help: "The serving-default model version per system.", Type: "gauge"}
	for _, info := range s.reg.List() {
		if info.Active {
			f.Add(obs.Labels("system", info.System), float64(info.Version))
		}
	}
	return append(dst, f)
}

// Close answers the frames in flight on hop connections and closes them all,
// stops the reloader (if attached) and the shadow mirror, and waits for
// running evaluations to end. Requests that still have misses to evaluate
// then get ErrBatcherClosed.
func (s *Service) Close() {
	s.hops.close()
	s.reloader.Load().Close()
	s.shadow.Close()
	close(s.closed)
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
}

// Registry exposes the model registry (for listings).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics exposes the service counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Tracer returns the request tracer, or nil when tracing is disabled.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Logger returns the service's structured logger (never nil).
func (s *Service) Logger() *slog.Logger { return s.logger }

// Reloader returns the attached registry reloader, or nil.
func (s *Service) Reloader() *Reloader { return s.reloader.Load() }

func (s *Service) attachReloader(r *Reloader) { s.reloader.Store(r) }

// SetObserver attaches (or, with nil, detaches) the served-traffic
// observer. Safe to call while traffic is flowing.
func (s *Service) SetObserver(o Observer) {
	if o == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&observerBox{obs: o})
}

// Predict serves a batch of rows against one model version (version <= 0
// selects the serving default: the promoted version, or the highest
// registered one), returning the results and the bundle that produced
// them.
// Rows must match the bundle's feature schema. Rows that hit the duplicate
// cache are answered immediately; the rest are evaluated together, on the
// caller's goroutine, once it holds an evaluation slot.
func (s *Service) Predict(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, error) {
	results, mv, _, _, err := s.PredictTraced(ctx, system, version, rows)
	return results, mv, err
}

// PredictTraced is Predict plus observability: it returns the request's
// per-stage latency attribution and, when tracing is on and tail-sampling
// retained the request, the trace ID (0 otherwise). The HTTP layer uses it
// to ship server-side timings and X-Trace-Id back to callers; embedders
// that don't care call Predict.
func (s *Service) PredictTraced(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, obs.StageTimings, uint64, error) {
	return s.predictTraced(ctx, system, version, rows, nil, 0)
}

// predictTraced is PredictTraced building the results in dst's storage,
// which grows only when it is short, under the upstream trace parent.
func (s *Service) predictTraced(ctx context.Context, system string, version int, rows [][]float64, dst []PredictionResult, parent uint64) ([]PredictionResult, *ModelVersion, obs.StageTimings, uint64, error) {
	start := time.Now()
	s.metrics.Requests.Add(1)
	// tm lives on this frame: stage attribution costs no allocation, and
	// the pooled Trace (if any) is only filled from it at the very end.
	var tm obs.StageTimings
	tm.Rows = len(rows)
	// Per-system series are created inside predict, only after the
	// registry resolves the system — a flood of bogus system names must
	// not grow the metrics map (and /metrics cardinality) without bound;
	// such failures count only toward the unlabeled totals.
	results, mv, err := s.predict(ctx, system, version, rows, false, &tm, dst)
	tm.TotalNs = time.Since(start).Nanoseconds()
	if err != nil {
		s.metrics.Errors.Add(1)
		if mv != nil {
			s.metrics.System(mv.System).Errors.Add(1)
		}
		id := s.finishTrace(parent, system, mv, start, &tm, err)
		return nil, nil, tm, id, err
	}
	s.metrics.LatencyNs.Add(uint64(tm.TotalNs))
	s.metrics.Latency.Observe(time.Duration(tm.TotalNs))
	s.metrics.ObserveStages(&tm)
	id := s.finishTrace(parent, system, mv, start, &tm, nil)
	return results, mv, tm, id, nil
}

// finishTrace runs the request through tail-sampling: no-op (returns 0)
// when tracing is off, otherwise fills a pooled Trace from tm and lets the
// tracer decide retention. parent, the upstream trace ID of a router hop
// (0 for none), is recorded as the retained trace's parent.
func (s *Service) finishTrace(parent uint64, system string, mv *ModelVersion, start time.Time, tm *obs.StageTimings, err error) uint64 {
	if s.tracer == nil {
		return 0
	}
	sys, ver := system, 0
	if mv != nil {
		sys, ver = mv.System, mv.Version
	}
	t := s.tracer.Start(sys, ver, start)
	t.Parent = parent
	t.Timings = *tm
	if err != nil {
		t.Err = err.Error()
		// Deadline-expired requests get their own keep reason and stay out
		// of the moving-p99 feed: their latency measures the deadline, not
		// the pipeline.
		t.Deadline = errors.Is(err, context.DeadlineExceeded)
	}
	return s.tracer.Finish(t)
}

// TraceShed records an admission-shed request in the trace ring (keep
// reason "shed") and returns its trace ID; 0 when tracing is off. Shed
// requests never enter the predict path, so the HTTP layer calls this
// directly from the admission rejection.
func (s *Service) TraceShed(system string, reason string) uint64 {
	if s.tracer == nil {
		return 0
	}
	t := s.tracer.Start(system, 0, time.Now())
	t.Shed = true
	t.Err = "shed by admission control: " + reason
	return s.tracer.Finish(t)
}

// PredictQuiet evaluates rows exactly like Predict — same registry
// resolution, duplicate cache, evaluation slots, and guardrails — but
// records nothing: no serving metrics, no shadow mirroring, no observer
// notification. Control-plane evaluations (e.g. internal/drift scoring
// ground-truth feedback against model versions) use it so backfilled
// feedback never reads as live traffic or double-counts served rows.
func (s *Service) PredictQuiet(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, error) {
	var tm obs.StageTimings // measured then discarded: quiet calls stay invisible
	return s.predict(ctx, system, version, rows, true, &tm, nil)
}

// predict is the shared serving path. tm (never nil) accumulates the
// request's stage attribution as it flows through cache, evaluation, and
// finalization; the caller decides whether those timings reach /metrics or
// a retained trace. The results are built in dst's storage, grown only when
// it is short.
func (s *Service) predict(ctx context.Context, system string, version int, rows [][]float64, quiet bool, tm *obs.StageTimings, dst []PredictionResult) ([]PredictionResult, *ModelVersion, error) {
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("serve: empty request")
	}
	// The bundle is resolved exactly once per request; every row, cache
	// key, and the reported version below use this pointer, so a reload
	// swapping versions mid-request can never produce a torn read — the
	// whole request is served by one consistent bundle.
	mv, err := s.reg.Get(system, version)
	if err != nil {
		return nil, nil, err
	}
	if !quiet {
		s.metrics.System(mv.System).Requests.Add(1)
	}
	for i, row := range rows {
		if len(row) != len(mv.Columns) {
			return nil, mv, fmt.Errorf("serve: row %d has %d features, model %s v%d expects %d",
				i, len(row), mv.System, mv.Version, len(mv.Columns))
		}
	}

	// Every row's result is set below, so what dst held does not matter.
	results := slices.Grow(dst[:0], len(rows))[:len(rows)]
	setResult := func(i int, res Result, cacheHit bool) {
		results[i] = PredictionResult{Log10Throughput: res.PredLog, Guard: res.Guard, CacheHit: cacheHit}
	}
	type miss struct {
		i   int
		key uint64
		// dependents are later rows in this request with the same
		// feature vector; they ride on this evaluation as cache hits.
		dependents []int
	}
	// All of a request's misses are one evaluation. Their bookkeeping lives
	// on this frame up to missesOnStack. Their row headers go into the
	// pooled scratch the evaluation runs on, taken at the first miss: a
	// stack array of headers handed to the evaluation would escape.
	const missesOnStack = 32
	var missBuf [missesOnStack]miss
	misses := missBuf[:0]
	var sc *evalScratch
	var hits uint64
	// In-request duplicate lookup: typical requests hold few misses, so a
	// linear scan beats a per-request map — but the HTTP layer admits
	// ~100k-row batches, where a scan would go quadratic; those index
	// their misses by key instead.
	const dupScanCutoff = 64
	var pending map[uint64]int
	if s.cache != nil && len(rows) > dupScanCutoff {
		pending = make(map[uint64]int, len(rows))
	}
	cacheStart := time.Now()
	for i, row := range rows {
		// Without a cache nothing reads the key, and hashing a row costs
		// about as much as a cache probe.
		var key uint64
		if s.cache != nil {
			key = HashKey(mv.System, mv.Version, row)
		}
		if res, ok := s.cache.Get(key, row, mv); ok {
			setResult(i, res, true)
			hits++
			continue
		}
		// Duplicate of a row already in flight in this request: don't
		// evaluate it twice. Only when caching is enabled — with the
		// cache off, every row pays full evaluation so the cache-on/off
		// comparison isolates duplicate-awareness as a whole.
		if s.cache != nil {
			dupIdx := -1
			if pending != nil {
				if mi, ok := pending[key]; ok && rowsEqual(rows[misses[mi].i], row) {
					dupIdx = mi
				}
			} else {
				for mi := range misses {
					if misses[mi].key == key && rowsEqual(rows[misses[mi].i], row) {
						dupIdx = mi
						break
					}
				}
			}
			if dupIdx >= 0 {
				misses[dupIdx].dependents = append(misses[dupIdx].dependents, i)
				hits++
				continue
			}
		}
		misses = append(misses, miss{i: i, key: key})
		if sc == nil {
			sc = evalScratchPool.Get().(*evalScratch)
		}
		sc.rows = append(sc.rows, row)
		if pending != nil {
			pending[key] = len(misses) - 1
		}
	}
	tm.Add(obs.StageCacheLookup, time.Since(cacheStart).Nanoseconds())
	tm.CacheHits = int(hits)
	tm.CacheMisses = len(misses)
	if sc != nil {
		evaluated, err := s.evaluateMisses(ctx, mv, sc, tm)
		if err != nil {
			sc.release()
			return nil, mv, err
		}
		finalizeStart := time.Now()
		for k := range misses {
			ms := &misses[k]
			res := evaluated[k]
			s.cache.Put(ms.key, rows[ms.i], mv, res)
			setResult(ms.i, res, false)
			for _, di := range ms.dependents {
				setResult(di, res, true)
			}
		}
		sc.release()
		tm.Add(obs.StageFinalize, time.Since(finalizeStart).Nanoseconds())
	}

	var ood uint64
	for _, r := range results {
		if r.Guard.OoD {
			ood++
		}
	}
	tm.OoDFlagged = int(ood)
	if quiet {
		return results, mv, nil
	}
	s.metrics.Predictions.Add(uint64(len(rows)))
	s.metrics.CacheHits.Add(hits)
	s.metrics.CacheMisses.Add(uint64(len(misses)))
	sys := s.metrics.System(mv.System)
	sys.Predictions.Add(uint64(len(rows)))
	sys.CacheHits.Add(hits)
	sys.CacheMisses.Add(uint64(len(misses)))
	s.metrics.OoDFlagged.Add(ood)
	sys.OoDFlagged.Add(ood)
	observeStart := time.Now()
	s.shadow.Mirror(mv, rows, results)
	if box := s.observer.Load(); box != nil {
		box.obs.ObserveServed(mv, rows, results)
	}
	tm.Add(obs.StageObserve, time.Since(observeStart).Nanoseconds())
	return results, mv, nil
}

package serve

import (
	"math"
	"sync"
	"time"
)

// Shadow evaluation: the paper's core warning is that a deployed I/O model
// degrades silently as the system drifts, so replacing a model version must
// be measured, not assumed. The Shadow mirrors a configurable slice of the
// traffic served by each system's active version to the adjacent registry
// versions — the previous version v(N-1) ("shadow"), and, when an operator
// has pinned the active version below the newest reloaded one, that staged
// newer version ("canary") — and accumulates online deltas between the
// versions: MAE/logMAE of the predictions, OoD-flag agreement, and target
// evaluation latency. Ground truth is unavailable online; what the deltas
// expose is how differently the candidate behaves on live traffic, which
// is exactly the drift signal needed before a promote or after a rollback.
//
// Mirrored work runs on its own worker goroutine, off the predict latency
// path; when its queue is full, rows are shed (and counted) rather than
// backpressuring the serving path.

// shadowRole labels for ShadowKey.Role.
const (
	RoleShadow = "shadow"
	RoleCanary = "canary"
)

// shadowJob is one row to replay against a non-serving version.
type shadowJob struct {
	key     ShadowKey
	target  *ModelVersion
	row     []float64
	primLog float64
	primOoD bool
}

// Shadow mirrors sampled rows to comparison versions. A nil *Shadow is
// inert, so the zero configuration costs nothing.
type Shadow struct {
	threshold uint64 // sampling cutoff on 24 bits
	reg       *Registry
	metrics   *Metrics
	jobs      chan shadowJob
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// shadowQueue bounds the mirrored rows (each a copy) waiting for the
// mirror's one worker: a row that finds the queue full is shed, so a
// burst costs at most this many copies and never slows the predict path.
const shadowQueue = 256

// NewShadow builds a mirror over reg evaluating fraction of active-version
// rows on one worker. Returns nil when fraction <= 0.
func NewShadow(reg *Registry, fraction float64, m *Metrics) *Shadow {
	if fraction <= 0 {
		return nil
	}
	s := &Shadow{
		threshold: uint64(math.Ceil(min(fraction, 1) * (1 << 24))),
		reg:       reg,
		metrics:   m,
		jobs:      make(chan shadowJob, shadowQueue),
		stop:      make(chan struct{}),
	}
	s.wg.Add(1)
	go s.worker()
	return s
}

// Close stops the worker; queued jobs are abandoned.
func (s *Shadow) Close() {
	if s == nil {
		return
	}
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// sampled decides deterministically whether a row joins the mirror. The
// decision hashes the feature vector, not the arrival: a given job is
// either always mirrored or never, so both sides of a version comparison
// see the identical row population and reruns reproduce it. The row hash
// is remixed so the choice does not correlate with cache shard selection.
func (s *Shadow) sampled(rowHash uint64) bool {
	x := rowHash ^ 0x5851F42D4C957F2D
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x>>40 < s.threshold
}

// Mirror enqueues the sampled slice of a served request for comparison
// evaluation. Only traffic answered by the system's active version is
// mirrored — comparisons anchor on what production actually serves.
func (s *Shadow) Mirror(mv *ModelVersion, rows [][]float64, results []PredictionResult) {
	if s == nil {
		return
	}
	active, err := s.reg.ActiveVersion(mv.System)
	if err != nil || active != mv.Version {
		return
	}
	prev, canary := s.reg.ShadowTargets(mv.System)
	if prev == nil && canary == nil {
		return
	}
	// A target whose feature schema differs from the serving bundle's
	// cannot replay its rows (the model would reject — or worse, walk —
	// the wrong width); such a version pair is simply not comparable.
	if prev != nil && len(prev.Columns) != len(mv.Columns) {
		prev = nil
	}
	if canary != nil && len(canary.Columns) != len(mv.Columns) {
		canary = nil
	}
	if prev == nil && canary == nil {
		return
	}
	targets := []struct {
		mv   *ModelVersion
		role string
	}{{prev, RoleShadow}, {canary, RoleCanary}}
	for i, row := range rows {
		if !s.sampled(HashKey(mv.System, 0, row)) {
			continue
		}
		var rowCopy []float64
		for _, t := range targets {
			target, role := t.mv, t.role
			if target == nil {
				continue
			}
			if rowCopy == nil {
				// Copied once; jobs only read it.
				rowCopy = append([]float64(nil), row...)
			}
			job := shadowJob{
				key: ShadowKey{
					System:  mv.System,
					Primary: mv.Version,
					Target:  target.Version,
					Role:    role,
				},
				target:  target,
				row:     rowCopy,
				primLog: results[i].Log10Throughput,
				primOoD: results[i].Guard.OoD,
			}
			select {
			case s.jobs <- job:
			default:
				s.metrics.Shadow(job.key).observeDropped()
			}
		}
	}
}

func (s *Shadow) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.jobs:
			s.run(job)
		}
	}
}

// run replays one row on the target version and records the deltas.
func (s *Shadow) run(job shadowJob) {
	// A queued job may outlive its versions: if a reload retired the
	// primary or target since Mirror enqueued it, recording would
	// resurrect the ShadowStat that PruneShadow just deleted — drop the
	// job without touching metrics instead.
	if _, err := s.reg.Get(job.key.System, job.key.Primary); err != nil {
		return
	}
	if _, err := s.reg.Get(job.key.System, job.key.Target); err != nil {
		return
	}
	// A panic here (a hostile or inconsistent bundle slipping past the
	// schema gate) must cost one comparison, not the serving process.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Shadow(job.key).observeError()
		}
	}()
	stat := s.metrics.Shadow(job.key)
	start := time.Now()
	res, err := evaluate(job.target, [][]float64{job.row})
	lat := time.Since(start)
	if err != nil {
		stat.observeError()
		return
	}
	r := res[0]
	targetOoD := r.Guard.OoD
	stat.observe(
		math.Abs(r.PredLog-job.primLog),
		math.Abs(math.Pow(10, r.PredLog)-math.Pow(10, job.primLog)),
		targetOoD == job.primOoD,
		targetOoD,
		uint64(lat.Nanoseconds()),
	)
}

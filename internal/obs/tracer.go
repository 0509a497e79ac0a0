package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Keep reasons recorded on retained traces (Trace.Keep) and counted in the
// tracer's exposition series.
const (
	KeepError    = "error"
	KeepDeadline = "deadline"
	KeepShed     = "shed"
	KeepOoD      = "ood"
	KeepSlow     = "slow"
	KeepSampled  = "sampled"
)

// keepReasons orders the reasons for deterministic exposition.
var keepReasons = [...]string{KeepError, KeepDeadline, KeepShed, KeepOoD, KeepSlow, KeepSampled}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery head-samples one of every N finished requests into the
	// ring regardless of outcome (<= 0 disables head sampling; the tail
	// keeps below still apply). Errors, OoD-flagged requests, and requests
	// slower than the moving p99 threshold are always retained.
	SampleEvery int
	// RingSize is the retained-trace capacity (default 256).
	RingSize int
	// SlowAfter pins the slow-trace threshold to a fixed duration instead
	// of the moving p99 estimate (tests; 0 keeps the adaptive threshold).
	SlowAfter time.Duration
}

// slowRecomputeEvery is how many finished traces elapse between p99
// threshold refreshes; it is also the minimum sample before the adaptive
// threshold arms (until then nothing is "slow").
const slowRecomputeEvery = 128

// keepPolicy is the tail-sampling policy both tracers embed: sheds,
// deadline expiries, errors and OoD-flagged requests are always kept, so
// are requests slower than the moving p99, and 1-in-N of the rest are
// head-sampled.
type keepPolicy struct {
	cfg Config
	// headCtr implements the 1-in-N head sample.
	headCtr atomic.Uint64
	// lat is the moving p99 estimate the adaptive slow-trace threshold is
	// read from (unused when cfg.SlowAfter pins the threshold).
	lat *MovingP99
	// kept / dropped count outcomes, kept split by reason (indexed like
	// keepReasons).
	kept    [len(keepReasons)]atomic.Uint64
	dropped atomic.Uint64
}

// keep classifies one finished request, in precedence order shed >
// deadline > error > OoD > slow > sampled, counts the outcome and returns
// the keep reason ("" when dropped). Shed and deadline-expired requests
// never reached the model, so their latency stays out of the p99 the slow
// threshold adapts to.
func (p *keepPolicy) keep(shed, deadline, failed, ood bool, totalNs int64) string {
	if !shed && !deadline && p.cfg.SlowAfter <= 0 {
		p.lat.Observe(totalNs)
	}
	var i int
	switch {
	case shed:
		i = 2 // KeepShed
	case deadline:
		i = 1 // KeepDeadline
	case failed:
		i = 0 // KeepError
	case ood:
		i = 3 // KeepOoD
	case totalNs >= int64(p.SlowThreshold()):
		i = 4 // KeepSlow
	case p.cfg.SampleEvery > 0 && p.headCtr.Add(1)%uint64(p.cfg.SampleEvery) == 0:
		i = 5 // KeepSampled
	default:
		p.dropped.Add(1)
		return ""
	}
	p.kept[i].Add(1)
	return keepReasons[i]
}

// SlowThreshold reports the current slow-trace bar (MaxInt64 duration
// until the adaptive estimate arms).
func (p *keepPolicy) SlowThreshold() time.Duration {
	if p.cfg.SlowAfter > 0 {
		return p.cfg.SlowAfter
	}
	return time.Duration(p.lat.Value())
}

// SlowThresholdNs reports the slow-trace bar in nanoseconds, 0 until the
// adaptive estimate arms: the form the GET /v1/trace listings and the
// threshold gauge show (MaxInt64 would wreck dashboards).
func (p *keepPolicy) SlowThresholdNs() int64 {
	if ns := int64(p.SlowThreshold()); ns != math.MaxInt64 {
		return ns
	}
	return 0
}

// collect appends the policy's series under prefix, noun naming what is
// traced in the HELP texts. Keep reasons go out in fixed order so scrapes
// are deterministic.
func (p *keepPolicy) collect(dst []PromFamily, prefix, noun string) []PromFamily {
	kept := PromFamily{Name: prefix + "_traces_kept_total", Help: strings.ToUpper(noun[:1]) + noun[1:] + " retained by tail-sampling, by reason.", Type: "counter"}
	for i, reason := range keepReasons {
		kept.Add(Labels("reason", reason), float64(p.kept[i].Load()))
	}
	return append(dst, kept,
		Scalar(prefix+"_traces_dropped_total", "Finished "+noun+" discarded by sampling.", "counter", float64(p.dropped.Load())),
		Scalar(prefix+"_trace_slow_threshold_seconds", "Moving p99 threshold above which "+noun+" are always retained (0 until armed).", "gauge", float64(p.SlowThresholdNs())/1e9))
}

// Tracer owns the request-trace lifecycle: pooled Trace records, the
// tail-sampling keep policy, and the retained-trace ring. A nil *Tracer is
// inert — Start returns nil and Finish of a nil trace is a no-op — so the
// serving path can thread one unconditionally.
type Tracer struct {
	keepPolicy
	ring *Ring[Trace]
	pool sync.Pool

	// seq + idBase generate unique trace IDs without coordination.
	seq    atomic.Uint64
	idBase uint64
}

// NewTracer builds a tracer under cfg.
func NewTracer(cfg Config) *Tracer {
	tr := &Tracer{keepPolicy: keepPolicy{cfg: cfg, lat: NewMovingP99(0)}, ring: NewRing[Trace](cfg.RingSize)}
	tr.idBase = uint64(time.Now().UnixNano()) << 16
	tr.pool.New = func() any { return new(Trace) }
	return tr
}

// Start returns a pooled, reset Trace for one request. Nil receiver (tracing
// disabled) returns nil.
func (tr *Tracer) Start(system string, version int, start time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	*t = Trace{ID: tr.idBase + tr.seq.Add(1), System: system, Version: version, Start: start}
	return t
}

// Finish applies the tail-sampling policy and recycles t: retained traces
// are copied into the ring and their ID returned; everything else is
// dropped (returns 0). t must not be touched after Finish.
func (tr *Tracer) Finish(t *Trace) uint64 {
	if tr == nil || t == nil {
		return 0
	}
	var id uint64
	if t.Keep = tr.keep(t.Shed, t.Deadline, t.Err != "", t.Timings.OoDFlagged > 0, t.Timings.TotalNs); t.Keep != "" {
		id = t.ID
		tr.ring.Push(t)
	}
	tr.pool.Put(t)
	return id
}

// Recent returns up to limit retained traces, newest first.
func (tr *Tracer) Recent(limit int) []Trace { return tr.ring.Recent(limit) }

// Get returns the retained trace with the given ID.
func (tr *Tracer) Get(id uint64) (Trace, bool) {
	return tr.ring.Find(func(t *Trace) bool { return t.ID == id })
}

// Collect appends the tracer's series (register with
// serve.Metrics.RegisterCollector).
func (tr *Tracer) Collect(dst []PromFamily) []PromFamily { return tr.collect(dst, "ioserve", "traces") }

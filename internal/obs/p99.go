package obs

import (
	"math"
	"sync/atomic"
)

// LatencyBuckets is the one latency ladder: bucket upper bounds in
// nanoseconds, 50µs .. 1s at roughly 1-2.5-5 per decade, with a +Inf
// bucket implied after the last. The serving histograms, the moving p99
// and the SLO windows all count over it.
var LatencyBuckets = [...]int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000,
}

// LatencyBucket returns the index of the first bucket whose bound is at
// least ns: len(LatencyBuckets), the +Inf bucket, above the ladder.
func LatencyBucket(ns int64) int {
	for i, ub := range LatencyBuckets {
		if ns <= ub {
			return i
		}
	}
	return len(LatencyBuckets)
}

// quantileBound is the one quantile rule over LatencyBuckets-ladder counts
// (indexed like LatencyBucket) that sum to total: the bound of the first
// bucket whose running total reaches the nearest rank ⌈q·total⌉ (at least
// 1), the ladder's top bound for the +Inf bucket, 0 when total is 0. The
// rank is integer arithmetic on q in ten-thousandths, so it is exact where
// q·total is not in floating point.
func quantileBound(counts []uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := max((total*uint64(math.Round(q*10_000))+9_999)/10_000, 1)
	var cum uint64
	for i, ub := range LatencyBuckets {
		if cum += counts[i]; cum >= rank {
			return ub
		}
	}
	return LatencyBuckets[len(LatencyBuckets)-1]
}

// MovingP99 is a lock-free windowed p99 latency estimator over the
// LatencyBuckets ladder. Observations accumulate in per-bucket counters;
// every window-th observation the p99 bucket bound is recomputed from the
// window's counts and the counters reset, so the estimate tracks the
// *recent* distribution rather than the lifetime one. Until the first window
// completes the estimate is disarmed (Value reports MaxInt64, Armed is
// false) — callers that gate on "latency above p99" must check Armed first
// or a disarmed estimator reads as infinitely slow.
//
// Both the tracer's slow-trace threshold and the admission gate's latency
// shed trigger are built on this type, so the two subsystems agree on what
// "p99" means.
type MovingP99 struct {
	window uint64
	counts [len(LatencyBuckets) + 1]atomic.Uint64
	n      atomic.Uint64
	p99    atomic.Int64
}

// NewMovingP99 builds an estimator that recomputes every window
// observations (<= 0 uses the tracer's default of 128).
func NewMovingP99(window int) *MovingP99 {
	if window <= 0 {
		window = slowRecomputeEvery
	}
	m := &MovingP99{window: uint64(window)}
	m.p99.Store(math.MaxInt64)
	return m
}

// Observe records one request latency in nanoseconds.
func (m *MovingP99) Observe(ns int64) {
	m.counts[LatencyBucket(ns)].Add(1)
	if m.n.Add(1)%m.window != 0 {
		return
	}
	// Recompute the p99 bucket bound from this window, draining the
	// counters so the next window starts fresh. Racing recomputes split the
	// counts between them (Swap is atomic per bucket); the loser sees a
	// near-empty window and keeps the previous estimate — this is a
	// sampling threshold, not an invariant.
	var counts [len(LatencyBuckets) + 1]uint64
	var total uint64
	for i := range counts {
		counts[i] = m.counts[i].Swap(0)
		total += counts[i]
	}
	if total == 0 {
		return
	}
	m.p99.Store(quantileBound(counts[:], total, 0.99))
}

// Value reports the current p99 bound in nanoseconds (MaxInt64 until the
// first window completes).
func (m *MovingP99) Value() int64 { return m.p99.Load() }

// Armed reports whether at least one window has completed and Value is a
// real estimate.
func (m *MovingP99) Armed() bool { return m.p99.Load() != math.MaxInt64 }

// Seconds reports Value in seconds, 0 until armed (for gauges — exposing
// MaxInt64 would wreck dashboards).
func (m *MovingP99) Seconds() float64 {
	v := m.p99.Load()
	if v == math.MaxInt64 {
		return 0
	}
	return float64(v) / 1e9
}

// Package workload is the load generator behind cmd/ioload. Traffic is
// shaped along the three axes the taxonomy says matter at serving time:
// arrival intensity (Poisson process at Rate req/s), duplicate mass (DupRate
// — the paper's Sec. VI finding that most jobs repeat known configurations,
// which is what the prediction cache monetizes), and novelty (OoDRate — rows
// pushed outside the training support, which the guardrail must flag). The
// generator is transport-agnostic: it calls a Target function per request,
// so one spec drives an in-process serve.Service as well as the HTTP
// endpoint.
package workload

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"iotaxo/internal/rng"
	"iotaxo/internal/serve"
)

// LoadSpec describes one synthetic serving workload.
type LoadSpec struct {
	// System routes requests to a registered model family.
	System string
	// Requests is the total request count to issue.
	Requests int
	// BatchSize is rows per request (>= 1).
	BatchSize int
	// Rate is the mean Poisson arrival rate in requests/second;
	// <= 0 issues requests back to back (closed loop).
	Rate float64
	// DupRate is the probability a generated row replays an
	// already-issued feature vector (an exact duplicate job).
	DupRate float64
	// OoDRate is the probability a generated row is perturbed far
	// outside the training distribution.
	OoDRate float64
	// Concurrency bounds in-flight requests (default 1).
	Concurrency int
	// Seed drives arrivals, sampling, and perturbations.
	Seed uint64
}

// Validate checks spec invariants.
func (s LoadSpec) Validate() error {
	switch {
	case s.Requests <= 0:
		return fmt.Errorf("workload: Requests must be positive, got %d", s.Requests)
	case s.BatchSize <= 0:
		return fmt.Errorf("workload: BatchSize must be positive, got %d", s.BatchSize)
	case s.DupRate < 0 || s.DupRate > 1:
		return fmt.Errorf("workload: DupRate %v out of [0,1]", s.DupRate)
	case s.OoDRate < 0 || s.OoDRate > 1:
		return fmt.Errorf("workload: OoDRate %v out of [0,1]", s.OoDRate)
	}
	return nil
}

// Target executes one request of rows and reports the per-row outcomes.
type Target func(ctx context.Context, rows [][]float64) ([]serve.PredictionResult, error)

// LoadStats summarizes one load-generation run.
type LoadStats struct {
	Requests int
	Rows     int
	Errors   int
	// CacheHits and OoDFlagged aggregate the per-row response flags.
	CacheHits  int
	OoDFlagged int
	// Latency percentiles over successful requests.
	P50, P95, P99 time.Duration
	// Elapsed and AchievedRPS describe the run as executed.
	Elapsed     time.Duration
	AchievedRPS float64
	// PerReplica counts rows served by each fleet replica, keyed by
	// replica name. Populated only when the target is a fleet router whose
	// responses carry the per-replica split (cmd/ioload fills it from the
	// router's response shares); empty against a single ioserve.
	PerReplica map[string]int
}

// oodScale is the multiplicative blow-up applied to perturbed rows; raw
// Darshan counters this far out have no training support, so the ensemble's
// members disagree and EU spikes.
const oodScale = 50

// LoadGen generates requests from a pool of real feature rows.
type LoadGen struct {
	spec LoadSpec
	pool [][]float64
	r    *rng.Rand

	mu     sync.Mutex
	issued [][]float64 // rows already sent at least once (duplicate pool)
}

// NewLoadGen builds a generator over a row pool (e.g. a generated frame's
// feature rows). The pool is sampled uniformly; issued rows feed the
// duplicate knob.
func NewLoadGen(spec LoadSpec, pool [][]float64) (*LoadGen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: the row pool is empty")
	}
	if spec.Concurrency <= 0 {
		spec.Concurrency = 1
	}
	return &LoadGen{spec: spec, pool: pool, r: rng.New(spec.Seed)}, nil
}

// NextRows builds one request's rows under the dup/OoD knobs. Callers own
// the returned rows. Exposed so benchmarks can pre-generate a workload and
// time only the serving path.
func (g *LoadGen) NextRows() [][]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	rows := make([][]float64, g.spec.BatchSize)
	for i := range rows {
		var row []float64
		if len(g.issued) > 0 && g.r.Bool(g.spec.DupRate) {
			// Replay an already-issued vector: an exact duplicate job.
			// Copied, so callers really do own the returned rows and
			// cannot corrupt the duplicate pool.
			row = append([]float64(nil), g.issued[g.r.Intn(len(g.issued))]...)
		} else {
			src := g.pool[g.r.Intn(len(g.pool))]
			row = append([]float64(nil), src...)
			if g.r.Bool(g.spec.OoDRate) {
				for j := range row {
					row[j] *= oodScale * (1 + g.r.Float64())
				}
			}
			g.issued = append(g.issued, row)
		}
		rows[i] = row
	}
	return rows
}

// Run issues the spec's requests against target, pacing arrivals as a
// Poisson process and keeping at most Concurrency requests in flight.
func (g *LoadGen) Run(ctx context.Context, target Target) (LoadStats, error) {
	var (
		stats     LoadStats
		mu        sync.Mutex
		wg        sync.WaitGroup
		latencies []time.Duration
	)
	sem := make(chan struct{}, g.spec.Concurrency)
	start := time.Now()
	next := start
	for i := 0; i < g.spec.Requests; i++ {
		if g.spec.Rate > 0 {
			// Exponential inter-arrival times => Poisson arrivals.
			next = next.Add(time.Duration(g.r.Exp(g.spec.Rate) * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					wg.Wait()
					return stats, ctx.Err()
				}
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return stats, ctx.Err()
		}
		rows := g.NextRows()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			reqStart := time.Now()
			results, err := target(ctx, rows)
			lat := time.Since(reqStart)
			mu.Lock()
			defer mu.Unlock()
			stats.Requests++
			stats.Rows += len(rows)
			if err != nil {
				stats.Errors++
				return
			}
			latencies = append(latencies, lat)
			for _, res := range results {
				if res.CacheHit {
					stats.CacheHits++
				}
				if res.Guard.OoD {
					stats.OoDFlagged++
				}
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	if stats.Elapsed > 0 {
		stats.AchievedRPS = float64(stats.Requests) / stats.Elapsed.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		pick := func(q float64) time.Duration {
			i := int(q * float64(len(latencies)-1))
			return latencies[i]
		}
		stats.P50, stats.P95, stats.P99 = pick(0.50), pick(0.95), pick(0.99)
	}
	return stats, nil
}

package iotaxo

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation. Each benchmark regenerates its experiment end to end
// (workload, models, litmus test) on a bench-scale dataset and reports the
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Dataset generation happens once, outside
// the timer. Absolute values come from the simulated substrate; the shapes
// are asserted in the package tests and recorded in EXPERIMENTS.md.

import (
	"context"
	"io"
	"slices"
	"sync"
	"testing"

	"iotaxo/internal/core"
	"iotaxo/internal/experiments"
	"iotaxo/internal/gbt"
	"iotaxo/internal/serve"
)

// benchJobs is the dataset size used by the benchmarks. Large enough for
// stable statistics, small enough for a laptop benchmark run.
const benchJobs = 8000

var (
	benchOnce  sync.Once
	benchTheta *Frame
	benchCori  *Frame
	benchErr   error
)

func benchFrames(b *testing.B) (*Frame, *Frame) {
	b.Helper()
	benchOnce.Do(func() {
		benchTheta, benchErr = Generate(ThetaLike(benchJobs))
		if benchErr != nil {
			return
		}
		benchCori, benchErr = Generate(CoriLike(benchJobs))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTheta, benchCori
}

// benchScale keeps model budgets bench-sized.
func benchScale() experiments.Scale {
	sc := experiments.DefaultScale()
	p := gbt.DefaultParams()
	p.NumTrees = 150
	p.MaxDepth = 9
	p.LearningRate = 0.08
	p.MinChildWeight = 5
	sc.TunedParams = p
	return sc
}

// render draws the result once so benchmarks exercise the full path.
type renderer interface{ Render(w io.Writer) error }

func renderOnce(b *testing.B, r renderer) {
	b.Helper()
	if err := r.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig1a(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1a(theta, benchScale(),
			[]int{16, 64, 256}, []int{4, 8, 14})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BestErr, "best_err_%")
		b.ReportMetric(100*res.DefaultErr, "default_err_%")
	}
}

func BenchmarkFig1b(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1b(theta)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(len(res.Apps)), "apps")
	}
}

func BenchmarkFig1c(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1c(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(res.TotalPairs), "pairs")
	}
}

func BenchmarkFig1d(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1d(theta, benchScale(), 0.7)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.PreDeployPct, "pre_deploy_err_%")
		b.ReportMetric(100*res.PostDeployPct, "post_deploy_err_%")
	}
}

func BenchmarkFig2(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(cori, benchScale(), experiments.SmallNAS())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BestPct, "best_nas_err_%")
		b.ReportMetric(100*res.FloorPct, "floor_%")
	}
}

func BenchmarkFig3(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(theta, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		for _, row := range res.Rows {
			if row.Features == "POSIX" {
				b.ReportMetric(100*row.TestPct, "posix_test_err_%")
			}
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cori, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BaselinePct, "baseline_err_%")
		b.ReportMetric(100*res.TimePct, "with_time_err_%")
		if res.LMTPct != nil {
			b.ReportMetric(100**res.LMTPct, "with_lmt_err_%")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(theta, benchScale(), experiments.SmallNAS())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(res.Summary.MedianAU, "median_AU")
		b.ReportMetric(res.Summary.MedianEU, "median_EU")
	}
}

func BenchmarkFig6(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Noise.Bound68Pct, "noise_68_%")
		b.ReportMetric(res.TFitNu, "t_fit_nu")
	}
}

func BenchmarkFig7(b *testing.B) {
	theta, _ := benchFrames(b)
	cfg := FastConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7("theta-like", theta, cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Result.Breakdown.BaselinePct, "baseline_err_%")
		b.ReportMetric(100*res.Result.Breakdown.Aleatory, "aleatory_share_%")
	}
}

func BenchmarkTableT1(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.T1(theta)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Floor.Fraction, "dup_%")
		b.ReportMetric(100*res.Floor.FloorPct, "floor_%")
	}
}

func BenchmarkTableT2(b *testing.B) {
	// T2 (the OoD attribution numbers) is produced by the Fig 5 pipeline;
	// this benchmark isolates the attribution given precomputed ensemble
	// outputs by running the NAS once outside the timer.
	theta, _ := benchFrames(b)
	res, err := experiments.Fig5(theta, benchScale(), experiments.SmallNAS())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AttributeOoD(res.Preds, res.AbsErrs, res.OoD.Threshold, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.OoD.FracOoD, "ood_jobs_%")
	b.ReportMetric(100*res.OoD.ErrShare, "ood_err_share_%")
	b.ReportMetric(res.OoD.ErrRatio, "err_ratio_x")
}

// BenchmarkModelZoo compares the model classes the I/O literature uses
// (ridge, tree, GBT default/tuned, NN) against the duplicate floor — the
// Sec. VI.B survey as one run.
func BenchmarkModelZoo(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ModelZoo(theta, benchScale(), 10)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		for _, row := range res.Rows {
			if row.Model == "GBT (tuned)" {
				b.ReportMetric(100*row.TestPct, "gbt_tuned_err_%")
			}
			if row.Model == "ridge regression" {
				b.ReportMetric(100*row.TestPct, "ridge_err_%")
			}
		}
		b.ReportMetric(100*res.FloorPct, "floor_%")
	}
}

// BenchmarkTruthCheck validates the litmus-test estimates against the
// simulator's injected ground truth — the repo's strongest evidence that
// the taxonomy machinery measures what it claims.
func BenchmarkTruthCheck(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TruthCheck(theta, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(res.SigmaTrue, "sigma_injected")
		b.ReportMetric(res.SigmaEstimated, "sigma_estimated")
	}
}

// BenchmarkWorkloadMap clusters the workload in feature space (the Sec. II
// clustering direction).
func BenchmarkWorkloadMap(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorkloadMap(theta, benchScale(), []int{4, 6, 8}, 500)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(res.K), "k")
		b.ReportMetric(res.Purity, "app_purity")
	}
}

// Serving benchmarks: the online path of internal/serve. The headline
// comparison is the duplicate-aware cache on a duplicate-heavy workload
// (the paper's Sec. VI finding at serving time): CacheOn must beat
// CacheOff on ns/row while answering most rows from cache.

var (
	serveOnce   sync.Once
	serveBundle *serve.ModelVersion
	serveRows   [][]float64
	serveErr    error
)

// serveFixture trains one bench-scale serving bundle (theta, ensemble of
// three) once for all serving benchmarks.
func serveFixture(b *testing.B) (*serve.ModelVersion, [][]float64) {
	b.Helper()
	serveOnce.Do(func() {
		frame, err := Generate(ThetaLike(1500))
		if err != nil {
			serveErr = err
			return
		}
		cfg := serve.BootstrapConfig{
			Jobs: 1500, Trees: 60, Depth: 6,
			EnsembleSize: 3, Epochs: 6, Seed: 1, Versions: 1,
		}
		serveBundle, serveErr = serve.BuildVersion("theta", 1, frame, cfg)
		serveRows = frame.Rows()
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveBundle, serveRows
}

// benchServe pushes a pre-generated workload through an in-process service
// and reports per-row cost plus the cache hit ratio. traceEvery > 0 turns
// request tracing on (1-in-N head sampling) to price the tracing path.
func benchServe(b *testing.B, cacheSize, batchSize int, dupRate float64, traceEvery int) {
	mv, pool := serveFixture(b)
	reg := serve.NewRegistry()
	if err := reg.Add(mv); err != nil {
		b.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{
		MaxBatch:   64,
		CacheSize:  cacheSize,
		TraceEvery: traceEvery,
	})
	defer svc.Close()
	gen, err := serve.NewLoadGen(serve.LoadSpec{
		System: "theta", Requests: 1, BatchSize: batchSize,
		DupRate: dupRate, Seed: 7,
	}, pool)
	if err != nil {
		b.Fatal(err)
	}
	// With the cache on and no duplicates asked for, cycling the 256
	// requests would turn every row into a hit from the second lap on. Such
	// a run instead numbers its rows in an integer feature (as bench/ does),
	// moves a request's numbers past every other in the cycle each time it
	// comes round again, and fills the cache before the timer starts: what
	// is timed is hash + Put + evict, at a 0 % hit ratio.
	unique := cacheSize > 0 && dupRate == 0
	col := slices.Index(mv.Columns, "posix_max_access_size")
	// Pre-generate the request stream outside the timer.
	const nReqs = 256
	reqs := make([][][]float64, nReqs)
	for i := range reqs {
		reqs[i] = gen.NextRows()
		if unique {
			for j, row := range reqs[i] {
				row[col] += float64(i*batchSize + j)
			}
		}
	}
	next := func(i int) [][]float64 {
		req := reqs[i%nReqs]
		if unique && i >= nReqs {
			for _, row := range req {
				row[col] += nReqs * float64(batchSize)
			}
		}
		return req
	}
	ctx := context.Background()
	issued := 0
	if unique {
		for ; issued*batchSize < 2*cacheSize; issued++ {
			if _, _, err := svc.Predict(ctx, "theta", 0, next(issued)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Serving-path heap traffic is a tracked regression axis (benchcmp
	// tripwires on allocs/op), so these benchmarks always report it.
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Predict(ctx, "theta", 0, next(issued+i)); err != nil {
			b.Fatal(err)
		}
		rows += batchSize
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(100*svc.Metrics().HitRatio(), "cache_hit_%")
	b.ReportMetric(svc.Metrics().MeanBatchSize(), "rows/eval_batch")
}

// BenchmarkServeDupHeavyCacheOn/Off is the acceptance comparison: an 80%
// duplicate workload with and without the duplicate-aware cache.
func BenchmarkServeDupHeavyCacheOn(b *testing.B)  { benchServe(b, 1<<16, 8, 0.8, 0) }
func BenchmarkServeDupHeavyCacheOff(b *testing.B) { benchServe(b, 0, 8, 0.8, 0) }

// BenchmarkServeUniqueCacheOn bounds the cache's overhead when nothing
// repeats: every row is new (cache_hit_% 0), so each one is hashed, misses,
// is evaluated and then inserted into a full cache, evicting another. The
// cache is kept to 4096 entries so that filling it before the timer stays
// cheap.
func BenchmarkServeUniqueCacheOn(b *testing.B) { benchServe(b, 1<<12, 8, 0, 0) }

// Batch-size sweep (uncached): amortization of the micro-batch path.
func BenchmarkServeBatch1(b *testing.B)  { benchServe(b, 0, 1, 0, 0) }
func BenchmarkServeBatch16(b *testing.B) { benchServe(b, 0, 16, 0, 0) }
func BenchmarkServeBatch64(b *testing.B) { benchServe(b, 0, 64, 0, 0) }

// BenchmarkServeBatch16Traced prices the tracing path: every request is
// head-sampled into the trace ring (the worst case — production samples a
// small fraction). Informational: not in the committed snapshot, so
// benchcmp's regression gate never keys on it; compare against
// ServeBatch16 by eye to see what a retained trace costs.
func BenchmarkServeBatch16Traced(b *testing.B) { benchServe(b, 0, 16, 0, 1) }

func BenchmarkTableT3(b *testing.B) {
	theta, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := experiments.T3(theta)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := experiments.T3(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, rt)
		renderOnce(b, rc)
		b.ReportMetric(100*rt.Noise.Bound68Pct, "theta_68_%")
		b.ReportMetric(100*rc.Noise.Bound68Pct, "cori_68_%")
	}
}

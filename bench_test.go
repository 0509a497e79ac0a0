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
	"io"
	"sync"
	"testing"

	"iotaxo/internal/core"
	"iotaxo/internal/experiments"
	"iotaxo/internal/gbt"
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

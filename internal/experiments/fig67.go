package experiments

import (
	"fmt"
	"io"

	"iotaxo/internal/core"
	"iotaxo/internal/dataset"
	"iotaxo/internal/report"
	"iotaxo/internal/stats"
)

// Fig6Result is the ∆t-binned duplicate-error distribution study (Sec. IX)
// with the Student-t fit of the concurrent bin.
type Fig6Result struct {
	Bins  []core.DeltaTBin
	Noise core.NoiseEstimate
	// TFitNu is the fitted degrees of freedom of the ∆t=0 deviations; the
	// paper's point is that this is NOT the near-normal regime.
	TFitNu float64
	// NormalSigma vs TSigma contrast the naive and t fits.
	NormalSigma float64
	TSigma      float64
}

// Fig6 bins duplicate pairs by time gap and fits the ∆t=0 distribution,
// both from one pass over the duplicate sets.
func Fig6(f *dataset.Frame) (*Fig6Result, error) {
	d, err := core.FindDuplicates(f)
	if err != nil {
		return nil, err
	}
	noise, err := d.Noise(nil, 1)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		Bins:        core.DeltaTBins(d.Pairs()),
		Noise:       noise,
		TFitNu:      noise.TFit.Nu,
		NormalSigma: noise.NormalFit.Sigma,
		TSigma:      noise.TFit.Sigma,
	}, nil
}

// Render prints the per-bin quantiles and the fits.
func (r *Fig6Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Fig 6: duplicate error distributions by time gap, with t-fit of the dt=0 bin"); err != nil {
		return err
	}
	tb := report.NewTable("dt range", "pairs", "p25", "median", "p75", "spread (p95-p5)")
	for _, b := range r.Bins {
		if b.Pairs == 0 {
			continue
		}
		tb.AddRow(b.Label, b.Pairs,
			report.Pct(stats.SignedPctFromLog(-b.P25)),
			report.Pct(stats.SignedPctFromLog(-b.Median)),
			report.Pct(stats.SignedPctFromLog(-b.P75)),
			report.Pct(stats.PctFromLog(b.P95-b.P05)))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"  dt=0 sets: %d (%.0f%% two-job, %.0f%% <= six jobs)\n"+
			"  t-fit: nu=%.1f scale=%.4f vs normal sigma=%.4f (heavy tails from small-set sampling)\n"+
			"  goodness of fit (KS): t %.4f vs normal %.4f\n"+
			"  corrected sigma %.4f -> expect throughput within +-%.2f%% (68%%) / +-%.2f%% (95%%)\n",
		r.Noise.Sets, 100*r.Noise.TwoJobSetFrac, 100*r.Noise.AtMostSixFrac,
		r.TFitNu, r.TSigma, r.NormalSigma,
		r.Noise.KST, r.Noise.KSNormal,
		r.Noise.SigmaLog, 100*r.Noise.Bound68Pct, 100*r.Noise.Bound95Pct)
	return err
}

// Fig7Result wraps a full framework run (Sec. X).
type Fig7Result struct {
	Result *core.FrameworkResult
}

// Fig7 applies the five-step framework.
func Fig7(name string, f *dataset.Frame, cfg core.FrameworkConfig) (*Fig7Result, error) {
	res, err := core.RunFramework(name, f, cfg)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Result: res}, nil
}

// Render prints the step results and the breakdown bars.
func (r *Fig7Result) Render(w io.Writer) error {
	res := r.Result
	if _, err := fmt.Fprintf(w, "Fig 7: taxonomy framework on %s\n", res.System); err != nil {
		return err
	}
	if err := evalLine(w, "step 1  baseline", res.Baseline); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-24s floor=%6.2f%%  (%d sets, %d jobs, %.1f%% of dataset)\n",
		"step 2.1 duplicate floor", 100*res.Floor.FloorPct, res.Floor.Sets,
		res.Floor.DuplicateJobs, 100*res.Floor.Fraction); err != nil {
		return err
	}
	if err := evalLine(w, "step 2.2 tuned", res.Tuned); err != nil {
		return err
	}
	if err := evalLine(w, "step 3.1 golden (+time)", res.Golden); err != nil {
		return err
	}
	if res.WithLMT != nil {
		if err := evalLine(w, "step 3.2 +LMT", *res.WithLMT); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-24s %.2f%% of jobs carry %.2f%% of error (%.1fx average)\n",
		"step 4  OoD", 100*res.OoD.FracOoD, 100*res.OoD.ErrShare, res.OoD.ErrRatio); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-24s sigma=%.4f  +-%.2f%% (68%%) +-%.2f%% (95%%)\n",
		"step 5  noise", res.Noise.SigmaLog, 100*res.Noise.Bound68Pct, 100*res.Noise.Bound95Pct); err != nil {
		return err
	}
	b := res.Breakdown
	if _, err := fmt.Fprintf(w, "  error breakdown (of %.2f%% baseline):\n", 100*b.BaselinePct); err != nil {
		return err
	}
	for _, seg := range []struct {
		label string
		frac  float64
	}{
		{"application modeling", b.AppModeling},
		{"removed by tuning", b.TuningRemoved},
		{"system modeling", b.SystemModeling},
		{"removed by LMT logs", b.LMTRemoved},
		{"out-of-distribution", b.OoD},
		{"aleatory (cont+noise)", b.Aleatory},
		{"unexplained", b.Unexplained},
	} {
		if _, err := fmt.Fprintf(w, "    %s\n", report.Bar(seg.label, seg.frac, 40)); err != nil {
			return err
		}
	}
	return nil
}

// T1Result is the in-text duplicate coverage table of Sec. VI.A.
type T1Result struct {
	Floor core.DuplicateFloor
}

// T1 computes the duplicate statistics.
func T1(f *dataset.Frame) (*T1Result, error) {
	floor, err := core.EstimateDuplicateFloor(f)
	if err != nil {
		return nil, err
	}
	return &T1Result{Floor: floor}, nil
}

// Render prints the coverage line the paper quotes.
func (r *T1Result) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"T1: %d duplicates (%.1f%% of the dataset) over %d sets; duplicate floor %.2f%%\n",
		r.Floor.DuplicateJobs, 100*r.Floor.Fraction, r.Floor.Sets, 100*r.Floor.FloorPct)
	return err
}

// T3Result is the in-text noise bound table of Sec. IX.A.
type T3Result struct {
	Noise core.NoiseEstimate
}

// T3 computes the noise bounds (without OoD exclusion; the framework run
// provides the OoD-screened version).
func T3(f *dataset.Frame) (*T3Result, error) {
	noise, err := core.EstimateNoise(f, nil, 1)
	if err != nil {
		return nil, err
	}
	return &T3Result{Noise: noise}, nil
}

// Render prints the variability bounds.
func (r *T3Result) Render(w io.Writer) error {
	n := r.Noise
	_, err := fmt.Fprintf(w,
		"T3: jobs can expect I/O throughput within +-%.2f%% of prediction 68%% of the time, +-%.2f%% 95%% of the time\n"+
			"    (from %d concurrent duplicate sets; %.0f%% two-job, %.0f%% <= six; naive sigma %.4f corrected %.4f)\n",
		100*n.Bound68Pct, 100*n.Bound95Pct, n.Sets,
		100*n.TwoJobSetFrac, 100*n.AtMostSixFrac, n.NaiveSigmaLog, n.SigmaLog)
	return err
}

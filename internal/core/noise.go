package core

import (
	"fmt"
	"math"
	"sort"

	"iotaxo/internal/dataset"
	"iotaxo/internal/stats"
)

// NoiseEstimate is the result of litmus test 4 (Sec. IX): the combined
// contention + inherent noise level of a system, estimated from duplicate
// jobs that ran at the same instant (∆t = 0). These jobs share application
// behavior and global system state; only contention placement and noise
// differ, so their spread lower-bounds any model's achievable error and
// quantifies the system's I/O variability.
type NoiseEstimate struct {
	// Sets and Jobs count the concurrent duplicate groups used.
	Sets int
	Jobs int
	// TwoJobSetFrac and AtMostSixFrac describe the set-size distribution
	// (the paper: 70% of Theta's ∆t=0 sets have two jobs, 96% <= 6).
	TwoJobSetFrac float64
	AtMostSixFrac float64
	// SigmaLog is the Bessel-corrected pooled standard deviation of the
	// log10 deviations (the paper's n/(n-1) correction for small sets).
	SigmaLog float64
	// NaiveSigmaLog is the uncorrected pooled standard deviation,
	// illustrating the bias the correction removes.
	NaiveSigmaLog float64
	// Bound68Pct and Bound95Pct are the throughput variability bounds the
	// paper reports (Theta ±5.71% / ±10.56%; Cori ±7.21% / ±14.99%).
	Bound68Pct float64
	Bound95Pct float64
	// MedianAbsLog / FloorPct is the ∆t=0 litmus floor: the lowest median
	// absolute error any model could reach, since even a perfect model
	// cannot predict this spread.
	MedianAbsLog float64
	FloorPct     float64
	// TFit is the Student-t fit to the pooled deviations; the paper shows
	// small-set sampling makes them t-distributed rather than normal.
	TFit stats.StudentT
	// NormalFit is the naive normal fit for comparison.
	NormalFit stats.Normal
	// KST and KSNormal are the Kolmogorov-Smirnov statistics of the two
	// fits; KST < KSNormal quantifies "the ∆t=0 distribution does not
	// follow a normal distribution" (Sec. IX.A).
	KST      float64
	KSNormal float64
}

// EstimateNoise runs litmus test 4. Duplicate jobs whose start times agree
// within tolSec are grouped; OoD-flagged rows are excluded first (step 1 of
// the litmus test requires OoD removal so novel jobs don't inflate the
// noise estimate). oodFlags may be nil when no OoD screening is available.
func EstimateNoise(f *dataset.Frame, oodFlags []bool, tolSec float64) (NoiseEstimate, error) {
	if err := misaligned(f, "oodFlags", oodFlags); err != nil {
		return NoiseEstimate{}, err
	}
	d, err := FindDuplicates(f)
	if err != nil {
		return NoiseEstimate{}, err
	}
	return d.Noise(oodFlags, tolSec)
}

// Noise is litmus test 4 over the duplicate sets (see EstimateNoise).
func (d Duplicates) Noise(oodFlags []bool, tolSec float64) (NoiseEstimate, error) {
	f := d.f
	if err := misaligned(f, "oodFlags", oodFlags); err != nil {
		return NoiseEstimate{}, err
	}
	var est NoiseEstimate
	var devs []float64      // Bessel-corrected signed deviations
	var naiveDevs []float64 // uncorrected
	var ssCorr, ssNaive float64
	two, six := 0, 0
	for _, s := range d.sets {
		groups := groupByStart(f, s.Rows, oodFlags, tolSec)
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			est.Sets++
			est.Jobs += len(g)
			if len(g) == 2 {
				two++
			}
			if len(g) <= 6 {
				six++
			}
			gdevs, bessel := deviations(f, g)
			for _, d := range gdevs {
				devs = append(devs, d*bessel)
				naiveDevs = append(naiveDevs, d)
				ssCorr += d * d * bessel * bessel
				ssNaive += d * d
			}
		}
	}
	if est.Sets == 0 {
		return est, fmt.Errorf("core: no concurrent duplicate sets within %v s", tolSec)
	}
	est.TwoJobSetFrac = float64(two) / float64(est.Sets)
	est.AtMostSixFrac = float64(six) / float64(est.Sets)
	est.SigmaLog = math.Sqrt(ssCorr / float64(len(devs)))
	est.NaiveSigmaLog = math.Sqrt(ssNaive / float64(len(devs)))
	est.Bound68Pct = stats.PctFromLog(est.SigmaLog)
	est.Bound95Pct = stats.PctFromLog(1.959963984540054 * est.SigmaLog)
	abs := make([]float64, len(devs))
	for i, d := range devs {
		abs[i] = math.Abs(d)
	}
	est.MedianAbsLog = stats.Median(abs)
	est.FloorPct = stats.PctFromLog(est.MedianAbsLog)
	if t, err := stats.FitStudentT(naiveDevs); err == nil {
		est.TFit = t
		est.KST = stats.KSStatistic(naiveDevs, t)
	}
	if n, err := stats.FitNormal(naiveDevs); err == nil {
		est.NormalFit = n
		est.KSNormal = stats.KSStatistic(naiveDevs, n)
	}
	return est, nil
}

// groupByStart splits a duplicate set's rows into groups whose start times
// agree within tol, skipping OoD rows. A start that is not positive (0, or
// NaN) is unknown, not concurrent with other unknowns, so such a row joins
// no group.
func groupByStart(f *dataset.Frame, rows []int, oodFlags []bool, tol float64) [][]int {
	kept := make([]int, 0, len(rows))
	for _, ri := range rows {
		if oodFlags != nil && oodFlags[ri] || !(f.Meta(ri).Start > 0) {
			continue
		}
		kept = append(kept, ri)
	}
	sort.Slice(kept, func(a, b int) bool {
		return f.Meta(kept[a]).Start < f.Meta(kept[b]).Start
	})
	var groups [][]int
	var cur []int
	for _, ri := range kept {
		if len(cur) == 0 || f.Meta(ri).Start-f.Meta(cur[0]).Start <= tol {
			cur = append(cur, ri)
			continue
		}
		groups = append(groups, cur)
		cur = []int{ri}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// DeltaTBin is one ∆t-decade bin of duplicate-pair differences (Fig 6).
type DeltaTBin struct {
	// Label like "1e3-1e4 s"; Lo/Hi are the bin bounds in seconds.
	Label  string
	Lo, Hi float64
	// Pairs is the (weighted) pair count; quantiles summarize the
	// weighted ∆ log-throughput distribution.
	Pairs  int
	Weight float64
	P05    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	// Devs are the raw signed pair differences (for rendering/fitting).
	Devs    []float64
	Weights []float64
}

// DeltaTBins buckets duplicate pairs into the paper's nine decade bins:
// [0,1), [1,10), ..., [1e6,1e7), [1e7,inf) seconds.
func DeltaTBins(pairs []DupPair) []DeltaTBin {
	bounds := []float64{0, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, math.Inf(1)}
	labels := []string{
		"0s-1s", "1s-10s", "10s-1e2s", "1e2s-1e3s", "1e3s-1e4s",
		"1e4s-1e5s", "1e5s-1e6s", "1e6s-1e7s", "1e7s+",
	}
	bins := make([]DeltaTBin, len(labels))
	for i := range bins {
		bins[i] = DeltaTBin{Label: labels[i], Lo: bounds[i], Hi: bounds[i+1]}
	}
	for _, p := range pairs {
		for i := range bins {
			if p.DeltaT >= bins[i].Lo && p.DeltaT < bins[i].Hi {
				bins[i].Pairs++
				bins[i].Weight += p.Weight
				bins[i].Devs = append(bins[i].Devs, p.DeltaLog)
				bins[i].Weights = append(bins[i].Weights, p.Weight)
				break
			}
		}
	}
	for i := range bins {
		b := &bins[i]
		if b.Pairs == 0 {
			continue
		}
		b.P05 = stats.WeightedQuantile(b.Devs, b.Weights, 0.05)
		b.P25 = stats.WeightedQuantile(b.Devs, b.Weights, 0.25)
		b.Median = stats.WeightedQuantile(b.Devs, b.Weights, 0.5)
		b.P75 = stats.WeightedQuantile(b.Devs, b.Weights, 0.75)
		b.P95 = stats.WeightedQuantile(b.Devs, b.Weights, 0.95)
	}
	return bins
}

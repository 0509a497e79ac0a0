package serve

import (
	"context"
	"math"
	"testing"

	"iotaxo/internal/system"
)

// TestGuardCorpus scores the served guard against the simulator's truth,
// the way an online classifier is scored per class against labelled faults.
// Each cell generates 6 000 jobs of one system and seed, builds a bundle
// (DefaultBootstrap at that seed) on the oldest 4 500 by start time, and
// serves the newest 1 500 through the Service. A row's truth is Meta.OoD;
// its error is |served log10 - log10 y|, set against the job's own injected
// noise term. The table is printed on every run; the pooled OoD precision
// and recall are pinned 0.02 below what the in-sample calibration reached
// when the floors were set (165 tp, 614 fp, 51 fn), so a calibration change
// that loses either shows here.
func TestGuardCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("checks numbers, not concurrency; too slow under -race")
	}
	const jobs, trainJobs = 6000, 4500
	var tp, fp, fn int
	t.Logf("%-6s %4s %9s %7s %7s %4s %4s %4s %6s %6s %9s", "system", "seed", "threshold", "sigma", "truth",
		"tp", "fp", "fn", "P", "R", "|e|<=|n|")
	for _, sys := range []string{"theta", "cori"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := system.ThetaLike(jobs)
			if sys == "cori" {
				cfg = system.CoriLike(jobs)
			}
			cfg.Seed = seed
			machine, err := system.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := machine.Frame()
			if err != nil {
				t.Fatal(err)
			}
			order := frame.SortByStart()
			bc := DefaultBootstrap()
			bc.Seed = seed
			mv, err := BuildVersion(sys, 1, frame.Subset(order[:trainJobs]), bc)
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			if err := reg.Add(mv); err != nil {
				t.Fatal(err)
			}
			svc := NewService(reg, Options{})
			served := frame.Subset(order[trainJobs:])
			res, _, err := svc.PredictQuiet(context.Background(), sys, 0, served.Rows())
			svc.Close()
			if err != nil {
				t.Fatal(err)
			}
			var c struct{ tp, fp, fn, noise int }
			for i, r := range res {
				meta := served.Meta(i)
				switch flagged := r.Guard.OoD; {
				case flagged && meta.OoD:
					c.tp++
				case flagged:
					c.fp++
				case meta.OoD:
					c.fn++
				}
				if math.Abs(r.Log10Throughput-math.Log10(served.Y()[i])) <= math.Abs(meta.Truth.Noise) {
					c.noise++
				}
			}
			t.Logf("%-6s %4d %9.4f %7.4f %7.4f %4d %4d %4d %6.3f %6.3f %9d", sys, seed, mv.Guard.EUThreshold,
				mv.Guard.NoiseSigmaLog, cfg.NoiseSigmaLog10, c.tp, c.fp, c.fn,
				ratio(c.tp, c.tp+c.fp), ratio(c.tp, c.tp+c.fn), c.noise)
			tp, fp, fn = tp+c.tp, fp+c.fp, fn+c.fn
		}
	}
	precision, recall := ratio(tp, tp+fp), ratio(tp, tp+fn)
	t.Logf("pooled: %d tp, %d fp, %d fn: precision %.3f, recall %.3f", tp, fp, fn, precision, recall)
	if !(precision >= 0.19 && recall >= 0.74) {
		t.Errorf("pooled OoD precision %.3f / recall %.3f, want >= 0.19 / 0.74", precision, recall)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

package drift

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"iotaxo/internal/dataset"
	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// A retrain measures the noise floor (litmus test 4) on its own feedback
// window when the rows carry start times, and carries the incumbent's,
// counted and explained, when they do not. The window is a ThetaLike(4000)
// machine, seed 1: 86 concurrent duplicate sets on the whole frame.

var (
	sigmaOnce  sync.Once
	sigmaFrame *dataset.Frame
	sigmaErr   error
)

func sigmaWindow(t *testing.T) *dataset.Frame {
	t.Helper()
	sigmaOnce.Do(func() {
		cfg := system.ThetaLike(4000)
		cfg.Seed = 1
		m, err := system.Generate(cfg)
		if err != nil {
			sigmaErr = err
			return
		}
		sigmaFrame, sigmaErr = m.Frame()
	})
	if sigmaErr != nil {
		t.Fatal(sigmaErr)
	}
	return sigmaFrame
}

// injectedSigma is the noise σ the simulator put into f, defined as
// TestTruthCheckRecoversInjectedQuantities defines it: the RMS of each
// job's noise and contention components (log10).
func injectedSigma(f *dataset.Frame) float64 {
	var ss float64
	for i := 0; i < f.Len(); i++ {
		tr := f.Meta(i).Truth
		ss += tr.Noise*tr.Noise + tr.Contention*tr.Contention
	}
	return math.Sqrt(ss / float64(f.Len()))
}

// retrainOn posts f's jobs as feedback in batches of 500, each batch
// `sends` times over (a retried POST), with start times when withStart,
// then forces a retrain and returns the published candidate.
func retrainOn(t *testing.T, f *dataset.Frame, withStart bool, sends int) (*harness, *serve.ModelVersion) {
	t.Helper()
	_, v1, _ := fixture(t)
	cfg := testConfig()
	cfg.RetrainWindow = 8192
	h := newHarness(t, cfg, v1)
	ctx := context.Background()
	for lo := 0; lo < f.Len(); lo += 500 {
		hi := min(lo+500, f.Len())
		req := FeedbackRequest{System: "theta", Rows: f.Rows()[lo:hi], Actual: f.Y()[lo:hi]}
		for i := lo; i < hi; i++ {
			req.App = append(req.App, f.Meta(i).App)
			if withStart {
				req.Start = append(req.Start, f.Meta(i).Start)
			}
		}
		for s := 0; s < sends; s++ {
			if _, err := h.ctl.Feedback(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.ctl.ForceRetrain("theta"); err != nil {
		t.Fatal(err)
	}
	if st := h.waitRetrain(t); st.Phase != PhaseStaged || st.StagedVersion != 2 {
		t.Fatalf("retrain did not stage v2: %+v decisions %+v", st, h.ctl.Decisions())
	}
	mv, err := h.svc.Registry().Get("theta", 2)
	if err != nil {
		t.Fatal(err)
	}
	return h, mv
}

func publishReason(t *testing.T, h *harness) string {
	t.Helper()
	for _, d := range h.ctl.Decisions() {
		if d.Action == ActionPublish {
			return d.Reason
		}
	}
	t.Fatalf("no publish decision: %+v", h.ctl.Decisions())
	return ""
}

func TestRetrainMeasuresNoiseFloor(t *testing.T) {
	f := sigmaWindow(t)
	want := injectedSigma(f)
	inBand := func(t *testing.T, sigma float64) {
		t.Helper()
		if sigma < 0.7*want || sigma > 1.6*want {
			t.Errorf("published σ %.4f, injected %.4f: outside 0.7–1.6×", sigma, want)
		}
	}

	t.Run("distinct jobs with start", func(t *testing.T) {
		h, mv := retrainOn(t, f, true, 1)
		t.Logf("σ %.4f (injected %.4f) from %d rows", mv.Guard.NoiseSigmaLog, want, mv.TrainedOn)
		inBand(t, mv.Guard.NoiseSigmaLog)
		if mv.TrainedOn != f.Len() {
			t.Errorf("trained on %d rows, want %d", mv.TrainedOn, f.Len())
		}
		if h.status(t).Retrains["sigma_carried"] != 0 || strings.Contains(publishReason(t, h), "carried") {
			t.Errorf("measurable window carried σ: %+v", h.ctl.Decisions())
		}
	})

	// A retried POST re-sends every job: the window holds each twice, and
	// only the collapse keeps them from training twice and from forming
	// zero-spread duplicate pairs that would shrink σ.
	t.Run("every job sent twice", func(t *testing.T) {
		_, mv := retrainOn(t, f, true, 2)
		t.Logf("σ %.4f (injected %.4f) from %d rows", mv.Guard.NoiseSigmaLog, want, mv.TrainedOn)
		inBand(t, mv.Guard.NoiseSigmaLog)
		if mv.TrainedOn != f.Len() {
			t.Errorf("trained on %d rows, want each of %d jobs once", mv.TrainedOn, f.Len())
		}
	})

	t.Run("no start carries the incumbent's", func(t *testing.T) {
		h, mv := retrainOn(t, f, false, 1)
		inc, err := h.svc.Registry().Get("theta", 1)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Guard.NoiseSigmaLog <= 0 {
			t.Fatal("setup: the incumbent carries no σ to keep")
		}
		if mv.Guard.NoiseSigmaLog != inc.Guard.NoiseSigmaLog || mv.Guard.NoiseFloorPct != inc.Guard.NoiseFloorPct {
			t.Errorf("published σ %v / floor %v, want the incumbent's %v / %v",
				mv.Guard.NoiseSigmaLog, mv.Guard.NoiseFloorPct, inc.Guard.NoiseSigmaLog, inc.Guard.NoiseFloorPct)
		}
		if reason := publishReason(t, h); !strings.Contains(reason, "noise floor carried from v1") ||
			!strings.Contains(reason, "0 concurrent duplicate sets") {
			t.Errorf("publish reason does not say σ was carried: %q", reason)
		}
		var buf strings.Builder
		if err := obs.WriteFamilies(&buf, h.svc.Metrics().Collect(nil)); err != nil {
			t.Fatal(err)
		}
		if want := `ioserve_drift_retrains_total{system="theta",outcome="sigma_carried"} 1`; !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	})
}

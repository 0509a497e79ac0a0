package serve

import (
	"testing"

	"iotaxo/internal/uq"
)

func TestDiagnoseGeneralization(t *testing.T) {
	cfg := GuardConfig{EUThreshold: 0.2, NoiseSigmaLog: 0.02, NoiseFloorPct: 0.057}
	g := cfg.Diagnose(uq.Prediction{Mean: 8, EU: 0.09, AU: 0.01}) // EU sd = 0.3
	if !g.OoD || g.ErrorSource() != SourceGeneralization {
		t.Errorf("high-EU prediction not flagged: %+v", g)
	}
	if g.EU < 0.29 || g.EU > 0.31 {
		t.Errorf("EU sd wrong: %v", g.EU)
	}
}

func TestDiagnoseModeling(t *testing.T) {
	cfg := GuardConfig{EUThreshold: 0.2, NoiseSigmaLog: 0.02}
	// In-distribution, whatever the spread: AU sd 0.2, then 0.025.
	for _, au := range []float64{0.04, 0.000625} {
		if g := cfg.Diagnose(uq.Prediction{EU: 0.01, AU: au}); g.OoD || g.ErrorSource() != SourceModeling {
			t.Errorf("in-distribution prediction misdiagnosed: %+v", g)
		}
	}
}

func TestDiagnoseUncalibrated(t *testing.T) {
	// A zero threshold disables the signal: nothing is flagged.
	g := GuardConfig{}.Diagnose(uq.Prediction{EU: 100, AU: 100})
	if g.OoD {
		t.Errorf("uncalibrated guard flagged: %+v", g)
	}
	if g.ErrorSource() != SourceModeling {
		t.Errorf("uncalibrated guard source: %q", g.ErrorSource())
	}
}

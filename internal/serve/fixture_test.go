package serve

import (
	"sync"
	"testing"

	"iotaxo/internal/dataset"
	"iotaxo/internal/system"
)

// Shared fixture: one tiny theta-like frame and a two-version bundle pair
// trained on it. Training is the expensive part, so every test reuses it.

var (
	fixtureOnce  sync.Once
	fixtureFrame *dataset.Frame
	fixtureV1    *ModelVersion
	fixtureV2    *ModelVersion
	fixtureErr   error
)

// fixtureCfg keeps training test-sized.
func fixtureCfg() BootstrapConfig {
	return BootstrapConfig{
		Systems:      []string{"theta"},
		Jobs:         700,
		Versions:     2,
		Trees:        24,
		Depth:        5,
		EnsembleSize: 3,
		Epochs:       4,
		Seed:         11,
	}
}

func fixture(t testing.TB) (*dataset.Frame, *ModelVersion, *ModelVersion) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := fixtureCfg()
		sysCfg := system.ThetaLike(cfg.Jobs)
		sysCfg.Seed = cfg.Seed
		m, err := system.Generate(sysCfg)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureFrame, err = m.Frame()
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureV1, err = BuildVersion("theta", 1, fixtureFrame, cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureV2, err = BuildVersion("theta", 2, fixtureFrame, cfg)
		if err != nil {
			fixtureErr = err
			return
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureFrame, fixtureV1, fixtureV2
}

// fixtureRegistry assembles both versions into a registry.
func fixtureRegistry(t testing.TB) *Registry {
	t.Helper()
	_, v1, v2 := fixture(t)
	reg := NewRegistry()
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	return reg
}

// oodRow returns a copy of a frame row pushed far outside the training
// distribution.
func oodRow(row []float64) []float64 {
	out := append([]float64(nil), row...)
	for j := range out {
		out[j] *= 80
	}
	return out
}

// derive returns a field-wise copy of mv with a fresh cache number — how a
// test builds a variant bundle (ModelVersion itself must not be copied by
// value: it embeds an atomic).
func (mv *ModelVersion) derive() *ModelVersion {
	return &ModelVersion{
		System:    mv.System,
		Version:   mv.Version,
		Columns:   mv.Columns,
		Model:     mv.Model,
		Ensemble:  mv.Ensemble,
		Scaler:    mv.Scaler,
		Guard:     mv.Guard,
		TrainedOn: mv.TrainedOn,
		Reference: mv.Reference,
	}
}

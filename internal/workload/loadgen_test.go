package workload

import (
	"context"
	"sync"
	"testing"

	"iotaxo/internal/dataset"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// fixture is a small Theta-like frame and a registry holding one bundle
// trained on it, built once for every test.
var fixture = sync.OnceValues(func() (*fixtureSet, error) {
	cfg := system.ThetaLike(500)
	cfg.Seed = 11
	m, err := system.Generate(cfg)
	if err != nil {
		return nil, err
	}
	frame, err := m.Frame()
	if err != nil {
		return nil, err
	}
	mv, err := serve.BuildVersion("theta", 1, frame, serve.BootstrapConfig{
		Systems: []string{"theta"}, Jobs: 500, Versions: 1,
		Trees: 16, Depth: 4, EnsembleSize: 3, Epochs: 4, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Add(mv); err != nil {
		return nil, err
	}
	return &fixtureSet{frame, reg}, nil
})

type fixtureSet struct {
	frame *dataset.Frame
	reg   *serve.Registry
}

func loadFixture(t *testing.T) (*dataset.Frame, *serve.Registry) {
	t.Helper()
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	return f.frame, f.reg
}

// serviceTarget adapts an in-process Service to a load-generator target.
func serviceTarget(svc *serve.Service, system string, version int) Target {
	return func(ctx context.Context, rows [][]float64) ([]serve.PredictionResult, error) {
		results, _, err := svc.Predict(ctx, system, version, rows)
		return results, err
	}
}

func TestLoadGenDuplicateKnobDrivesCache(t *testing.T) {
	frame, reg := loadFixture(t)
	svc := serve.NewService(reg, serve.Options{CacheSize: 8192})
	defer svc.Close()
	gen, err := NewLoadGen(LoadSpec{
		System:      "theta",
		Requests:    60,
		BatchSize:   4,
		DupRate:     0.7,
		Concurrency: 4,
		Seed:        3,
	}, frame.Rows())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := gen.Run(context.Background(), serviceTarget(svc, "theta", 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 60 || stats.Rows != 240 {
		t.Fatalf("stats volume: %+v", stats)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d load errors", stats.Errors)
	}
	// With a 70% duplicate rate the cache must absorb a large share.
	hitFrac := float64(stats.CacheHits) / float64(stats.Rows)
	if hitFrac < 0.4 {
		t.Errorf("cache hit fraction %.2f under duplicate-heavy load", hitFrac)
	}
	if stats.P50 <= 0 || stats.P99 < stats.P50 {
		t.Errorf("latency percentiles: %+v", stats)
	}
}

func TestLoadGenOoDKnobTripsGuardrail(t *testing.T) {
	frame, reg := loadFixture(t)
	svc := serve.NewService(reg, serve.Options{})
	defer svc.Close()
	gen, err := NewLoadGen(LoadSpec{
		System:    "theta",
		Requests:  40,
		BatchSize: 4,
		OoDRate:   0.5,
		Seed:      4,
	}, frame.Rows())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := gen.Run(context.Background(), serviceTarget(svc, "theta", 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.OoDFlagged == 0 {
		t.Error("OoD injection never tripped the guardrail")
	}
	if got := svc.Metrics().OoDFlagged.Load(); got == 0 {
		t.Error("service metrics saw no OoD rows")
	}
}

func TestLoadGenPoissonPacing(t *testing.T) {
	frame, _ := loadFixture(t)
	gen, err := NewLoadGen(LoadSpec{
		System:    "theta",
		Requests:  20,
		BatchSize: 1,
		Rate:      2000, // ~10ms total; enough to observe pacing without slowing tests
		Seed:      5,
	}, frame.Rows())
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	stats, err := gen.Run(context.Background(), func(ctx context.Context, rows [][]float64) ([]serve.PredictionResult, error) {
		calls++
		return make([]serve.PredictionResult, len(rows)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 || stats.Requests != 20 {
		t.Fatalf("issued %d/%d requests", calls, stats.Requests)
	}
	if stats.AchievedRPS <= 0 {
		t.Error("no achieved rate recorded")
	}
}

func TestLoadGenValidation(t *testing.T) {
	frame, _ := loadFixture(t)
	bad := []LoadSpec{
		{Requests: 0, BatchSize: 1},
		{Requests: 1, BatchSize: 0},
		{Requests: 1, BatchSize: 1, DupRate: 1.5},
		{Requests: 1, BatchSize: 1, OoDRate: -0.1},
	}
	for i, spec := range bad {
		if _, err := NewLoadGen(spec, frame.Rows()); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
	if _, err := NewLoadGen(LoadSpec{Requests: 1, BatchSize: 1}, nil); err == nil {
		t.Error("empty pool accepted")
	}
}

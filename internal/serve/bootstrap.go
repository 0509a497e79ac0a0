package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"iotaxo/internal/core"
	"iotaxo/internal/dataset"
	"iotaxo/internal/gbt"
	"iotaxo/internal/hpo"
	"iotaxo/internal/nn"
	"iotaxo/internal/system"
	"iotaxo/internal/uq"
)

// Bootstrap: train serving bundles from scratch so the service can start
// with no pre-existing artifacts (`ioserve -bootstrap`). For each simulated
// system this trains the production GBT, the guarding deep ensemble, and
// calibrates the guardrail the way the offline framework would: the OoD
// threshold from the inverse cumulative error curve (litmus test 3) and the
// noise floor from concurrent duplicates (litmus test 4).

// BootstrapConfig sizes the bootstrap training runs.
type BootstrapConfig struct {
	// Systems names the simulated systems to train ("theta", "cori").
	Systems []string
	// Jobs per generated dataset.
	Jobs int
	// Versions per system; version k uses k-step-refined hyperparameters,
	// so a bootstrapped registry exercises version pinning.
	Versions int
	// Trees / Depth size the GBT per version.
	Trees, Depth int
	// EnsembleSize / Epochs size the guarding ensemble.
	EnsembleSize int
	Epochs       int
	// Workers bounds ensemble-training parallelism.
	Workers int
	// Seed drives generation and training.
	Seed uint64
}

// DefaultBootstrap returns a laptop-sized bootstrap: two systems, two
// versions each, ensembles of three.
func DefaultBootstrap() BootstrapConfig {
	return BootstrapConfig{
		Systems:      []string{"theta", "cori"},
		Jobs:         4000,
		Versions:     2,
		Trees:        80,
		Depth:        7,
		EnsembleSize: 3,
		Epochs:       10,
		Seed:         1,
	}
}

// Bootstrap trains every configured bundle and, when dir is non-empty,
// persists them in the registry layout. The returned registry is usable
// directly (e.g. for in-process serving or tests).
func Bootstrap(cfg BootstrapConfig, dir string) (*Registry, error) {
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("serve: bootstrap needs at least one system")
	}
	if cfg.Versions <= 0 {
		cfg.Versions = 1
	}
	reg := NewRegistry()
	for _, name := range cfg.Systems {
		var sysCfg *system.Config
		switch name {
		case "theta":
			sysCfg = system.ThetaLike(cfg.Jobs)
		case "cori":
			sysCfg = system.CoriLike(cfg.Jobs)
		default:
			return nil, fmt.Errorf("serve: unknown bootstrap system %q (want theta or cori)", name)
		}
		sysCfg.Seed = cfg.Seed
		machine, err := system.Generate(sysCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: generating %s: %w", name, err)
		}
		frame, err := machine.Frame()
		if err != nil {
			return nil, fmt.Errorf("serve: framing %s: %w", name, err)
		}
		for v := 1; v <= cfg.Versions; v++ {
			mv, err := BuildVersion(name, v, frame, cfg)
			if err != nil {
				return nil, err
			}
			if err := reg.Add(mv); err != nil {
				return nil, err
			}
			if dir != "" {
				if err := SaveVersion(dir, mv); err != nil {
					return nil, err
				}
			}
		}
	}
	return reg, nil
}

// BumpVersion republishes a system's highest on-disk version as v(N+1) and
// returns the new version number. The bundle is loaded and saved again;
// every artifact has one encoding, so the new directory's artifacts are
// byte-identical and only the manifest's version changes — the cheap way to
// mint a "new" model version for reload demos and the version-churn load
// scenario (`ioload -churn`) without retraining. SaveVersion writes the
// manifest last, so a concurrent reload poll never sees a publishable
// half-written directory.
func BumpVersion(root, system string) (int, error) {
	sysDir := filepath.Join(root, system)
	entries, err := os.ReadDir(sysDir)
	if err != nil {
		return 0, fmt.Errorf("serve: bump reading %s: %w", sysDir, err)
	}
	highest := 0
	for _, e := range entries {
		sub := versionDirPattern.FindStringSubmatch(e.Name())
		if !e.IsDir() || sub == nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(sysDir, e.Name(), manifestName)); err != nil {
			continue
		}
		if v, _ := strconv.Atoi(sub[1]); v > highest {
			highest = v
		}
	}
	if highest == 0 {
		return 0, fmt.Errorf("serve: bump found no versions under %s", sysDir)
	}
	mv, err := loadVersionDir(filepath.Join(sysDir, fmt.Sprintf("v%d", highest)), system)
	if err != nil {
		return 0, err
	}
	mv.Version = highest + 1
	if err := SaveVersion(root, mv); err != nil {
		return 0, err
	}
	return mv.Version, nil
}

// MinNoiseSets is the fewest concurrent duplicate sets a frame must hold
// for Build to measure the noise floor from it (litmus test 4). Rows
// without a start time are never concurrent, so a frame of them measures
// nothing; σ is then reported as not measured, never guessed.
const MinNoiseSets = 8

// BuildVersion trains one serving bundle from a frame with the version
// ladder's one GBT candidate (see gbtParams).
func BuildVersion(name string, version int, frame *dataset.Frame, cfg BootstrapConfig) (*ModelVersion, error) {
	mv, _, err := Build(name, version, frame, []gbt.Params{cfg.gbtParams(version)}, cfg)
	return mv, err
}

// gbtParams is version's GBT candidate: gbt.TunedBase at cfg's trees and
// depth (80 and 7 when unset). Higher versions of a multi-version bootstrap
// get the tuned regime, v1 the aggressive defaults, mimicking the paper's
// Step 2.2 tuning trajectory (defaults overfit; tuning closes the gap), so
// /v1/models shows a meaningful history.
func (cfg BootstrapConfig) gbtParams(version int) gbt.Params {
	p := gbt.TunedBase()
	p.NumTrees = cfg.Trees
	if p.NumTrees <= 0 {
		p.NumTrees = 80
	}
	p.MaxDepth = cfg.Depth
	if p.MaxDepth <= 0 {
		p.MaxDepth = 7
	}
	p.Seed = cfg.Seed + uint64(version)
	if version == 1 && cfg.Versions > 1 {
		p.LearningRate = 0.3
		p.MinChildWeight = 1
	}
	return p
}

// SweepGrid is the candidate list a retrain hands Build for version:
// cfg's depth and one two levels shallower, each at cfg's trees and half
// of them. The tree axis is warm-started, so the four cost two chains.
func (cfg BootstrapConfig) SweepGrid(version int) []gbt.Params {
	base := cfg.gbtParams(version)
	var grid []gbt.Params
	for _, depth := range []int{max(base.MaxDepth-2, 2), base.MaxDepth} {
		for _, trees := range []int{max(base.NumTrees/2, 1), base.NumTrees} {
			p := base
			p.MaxDepth, p.NumTrees = depth, trees
			grid = append(grid, p)
		}
	}
	return grid
}

// Build trains one serving bundle from frame; it is the one build path,
// for bootstrap and retrain alike. One GBT candidate is trained on the
// whole frame. Several are swept with the warm-started hpo.GBTGridSearch,
// validating on the newest quarter of the frame (rows are in time order),
// and the winner is refitted on the whole frame. The scaler, the guarding
// ensemble, the EU threshold, the reference histograms and the noise floor
// all come from the same frame. noiseSets is how many concurrent duplicate
// sets the floor was measured from; below MinNoiseSets the guard's
// NoiseSigmaLog and NoiseFloorPct stay zero.
func Build(name string, version int, frame *dataset.Frame, candidates []gbt.Params, cfg BootstrapConfig) (mv *ModelVersion, noiseSets int, err error) {
	if frame.Len() == 0 {
		return nil, 0, fmt.Errorf("serve: empty frame for %s", name)
	}
	yLog := dataset.TargetTransform{}.ForwardAll(frame.Y())
	rows := frame.Rows()

	model, err := trainGBT(candidates, rows, yLog, cfg.Workers)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: training %s v%d: %w", name, version, err)
	}

	scaler := dataset.FitScaler(frame, true)
	scaled, err := scaler.Transform(frame)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: scaling %s: %w", name, err)
	}
	ensembleSize := cfg.EnsembleSize
	if ensembleSize < 2 {
		ensembleSize = 3
	}
	paramSets := make([]nn.Params, ensembleSize)
	for i := range paramSets {
		np := nn.DefaultParams()
		// Architecturally diverse members, as the EU signal requires.
		np.Hidden = []int{24 + 16*i}
		np.Epochs = cfg.Epochs
		if np.Epochs <= 0 {
			np.Epochs = 10
		}
		np.Seed = cfg.Seed + uint64(100*version+i)
		paramSets[i] = np
	}
	ensemble, err := uq.TrainEnsemble(paramSets, scaled, yLog, cfg.Workers)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: training %s v%d ensemble: %w", name, version, err)
	}

	// Calibrate the guardrail exactly as the offline litmus tests would.
	preds := ensemble.PredictAll(scaled)
	gbtPreds := model.PredictAll(rows)
	rep := core.EvaluatePredictions(gbtPreds, frame.Y())
	guard := GuardConfig{EUThreshold: uq.StableThreshold(preds, rep.AbsLogErrors)}
	if noise, err := core.EstimateNoise(frame, nil, 1.0); err == nil {
		noiseSets = noise.Sets
		if noiseSets >= MinNoiseSets {
			guard.NoiseSigmaLog = noise.SigmaLog
			guard.NoiseFloorPct = noise.FloorPct
		}
	}

	// Persist the training-time feature distribution so the bundle can be
	// drift-monitored after any number of save/load round trips.
	ref, err := BuildFeatureHists(frame.Columns(), rows, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: reference histograms for %s v%d: %w", name, version, err)
	}

	mv = &ModelVersion{
		System:    name,
		Version:   version,
		Columns:   frame.Columns(),
		Model:     model,
		Ensemble:  ensemble,
		Scaler:    scaler,
		Guard:     guard,
		TrainedOn: frame.Len(),
		Reference: ref,
	}
	// Compile at build time: bundles handed straight to benchmarks, an
	// in-process service or a retrain's publish still serve on the flat
	// engine from the first request, and no request pays the compilation.
	mv.Flat()
	return mv, noiseSets, nil
}

// trainGBT trains the one candidate on every row, or sweeps several with
// the newest quarter held out and refits the winner on every row.
func trainGBT(candidates []gbt.Params, rows [][]float64, yLog []float64, workers int) (*gbt.Model, error) {
	if len(candidates) == 1 {
		return gbt.Train(candidates[0], rows, yLog)
	}
	nVal := len(rows) / 4
	if nVal < 1 {
		return nil, fmt.Errorf("%d rows cannot be split for validation", len(rows))
	}
	cut := len(rows) - nVal
	bd, err := gbt.Bin(rows[:cut], candidates[0].NumBins)
	if err != nil {
		return nil, err
	}
	score := func(valPred []float64) (float64, error) {
		var sum float64
		for i, p := range valPred {
			sum += math.Abs(p - yLog[cut+i])
		}
		return sum / float64(len(valPred)), nil
	}
	_, best, err := hpo.GBTGridSearch(candidates, bd, yLog[:cut], rows[cut:], score, workers)
	if err != nil {
		return nil, fmt.Errorf("hyperparameter sweep: %w", err)
	}
	return gbt.Train(best.Candidate, rows, yLog)
}

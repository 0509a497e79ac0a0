package core

import (
	"fmt"

	"iotaxo/internal/dataset"
	"iotaxo/internal/gbt"
	"iotaxo/internal/hpo"
	"iotaxo/internal/nn"
	"iotaxo/internal/rng"
	"iotaxo/internal/uq"
)

// FrameworkConfig sets the budgets and protocol of the five-step framework
// (Sec. X). PaperConfig follows the paper's protocol at a scale a
// workstation can run; FastConfig shrinks every budget for tests.
type FrameworkConfig struct {
	Seed uint64
	// TrainFrac/ValFrac control the random split (Sec. VII's golden-model
	// protocol interpolates weather within the collection period, so the
	// framework splits randomly, not by time).
	TrainFrac, ValFrac float64
	// TimeColumn is the job start-time feature exposed to the golden
	// model in step 3.1.
	TimeColumn string
	// Grid axes for step 2.2's hyperparameter search.
	GridTrees     []int
	GridDepths    []int
	GridSubsample []float64
	GridColsample []float64
	// NAS budgets for step 4.
	NASPopulation  int
	NASGenerations int
	NNEpochs       int
	EnsembleSize   int
	// EUThreshold <= 0 selects the threshold automatically (shoulder).
	EUThreshold float64
	// NoiseTolSec is the ∆t tolerance for "concurrent" duplicates.
	NoiseTolSec float64
	// Workers bounds search parallelism (GOMAXPROCS if <= 0).
	Workers int
}

// PaperConfig returns the full-protocol configuration.
func PaperConfig() FrameworkConfig {
	return FrameworkConfig{
		Seed:           1,
		TrainFrac:      0.7,
		ValFrac:        0.15,
		TimeColumn:     "cobalt_start_time",
		GridTrees:      []int{4, 16, 32, 64, 128, 256, 512, 1024},
		GridDepths:     []int{4, 6, 8, 12, 16, 21, 24},
		GridSubsample:  []float64{0.7, 1.0},
		GridColsample:  []float64{0.7, 1.0},
		NASPopulation:  30,
		NASGenerations: 10,
		NNEpochs:       30,
		EnsembleSize:   8,
		NoiseTolSec:    1,
	}
}

// FastConfig returns a configuration with budgets small enough for unit
// tests and continuous integration.
func FastConfig() FrameworkConfig {
	return FrameworkConfig{
		Seed:           1,
		TrainFrac:      0.7,
		ValFrac:        0.15,
		TimeColumn:     "cobalt_start_time",
		GridTrees:      []int{32, 128},
		GridDepths:     []int{6, 10},
		GridSubsample:  []float64{1.0},
		GridColsample:  []float64{1.0},
		NASPopulation:  4,
		NASGenerations: 2,
		NNEpochs:       6,
		EnsembleSize:   3,
		NoiseTolSec:    1,
	}
}

// Breakdown expresses the Fig 7 pie segments as fractions of the baseline
// model's median error.
type Breakdown struct {
	// BaselinePct is the baseline model's median absolute error (the
	// "cumulative initial model error", 100% of the pie).
	BaselinePct float64
	// AppModeling is the estimated application modeling error share
	// (baseline vs the duplicate floor, step 2.1).
	AppModeling float64
	// TuningRemoved is the share actually removed by the hyperparameter
	// search (step 2.2) — evidence for the AppModeling estimate.
	TuningRemoved float64
	// SystemModeling is the estimated global system modeling error share
	// (tuned vs the start-time golden model, step 3.1).
	SystemModeling float64
	// LMTRemoved is the share removed by adding I/O subsystem logs
	// (step 3.2); zero on systems without such logs.
	LMTRemoved float64
	// OoD is the share of error carried by out-of-distribution jobs
	// (step 4).
	OoD float64
	// Aleatory is the irreducible share estimated from concurrent
	// duplicates (step 5).
	Aleatory float64
	// Unexplained is what the estimates fail to cover (the paper: 32.9%
	// on Theta, 13.5% on Cori).
	Unexplained float64
}

// FrameworkResult carries every intermediate artifact of a framework run.
type FrameworkResult struct {
	System string

	Baseline   ErrorReport    // step 1
	Floor      DuplicateFloor // step 2.1
	Tuned      ErrorReport    // step 2.2
	BestParams gbt.Params
	Golden     ErrorReport   // step 3.1
	WithLMT    *ErrorReport  // step 3.2 (nil when the system has no LMT)
	OoD        OoDReport     // step 4
	Noise      NoiseEstimate // step 5

	Breakdown Breakdown
}

// RunFramework applies the five-step framework to a system's frame.
func RunFramework(name string, f *dataset.Frame, cfg FrameworkConfig) (*FrameworkResult, error) {
	res := &FrameworkResult{System: name}
	tt := dataset.TargetTransform{}

	appFrame, err := f.SelectPrefix(AppFeaturePrefixes...)
	if err != nil {
		return nil, fmt.Errorf("core: selecting application features: %w", err)
	}
	split, err := appFrame.SplitRandom(rng.New(cfg.Seed), cfg.TrainFrac, cfg.ValFrac)
	if err != nil {
		return nil, err
	}

	// Step 1: baseline model with default hyperparameters.
	baseParams := gbt.DefaultParams()
	baseParams.Seed = cfg.Seed
	baseModel, err := gbt.Train(baseParams, split.Train.Rows(), tt.ForwardAll(split.Train.Y()))
	if err != nil {
		return nil, fmt.Errorf("core: baseline training: %w", err)
	}
	res.Baseline = Evaluate(baseModel, split.Test)

	// Step 2.2: hyperparameter search toward the floor.
	tunedModel, tunedParams, err := tuneGBT(cfg, split, tt)
	if err != nil {
		return nil, fmt.Errorf("core: tuning: %w", err)
	}
	res.BestParams = tunedParams
	res.Tuned = Evaluate(tunedModel, split.Test)

	// Step 3.1: global-system litmus test (golden model with start time).
	goldenModel, goldenSplit, err := trainEnriched(f, appFrame, cfg, tt, cfg.TimeColumn)
	if err != nil {
		return nil, fmt.Errorf("core: golden model: %w", err)
	}
	res.Golden = Evaluate(goldenModel, goldenSplit.Test)

	// Step 3.2: add I/O subsystem logs when the system collects them.
	if prefixedColumns(f, "lmt_") != nil {
		lmtModel, lmtSplit, err := trainWithPrefixes(f, cfg, tt, "posix_", "mpiio_", "lmt_")
		if err != nil {
			return nil, fmt.Errorf("core: LMT model: %w", err)
		}
		rep := Evaluate(lmtModel, lmtSplit.Test)
		res.WithLMT = &rep
	}

	// Steps 4-5: OoD attribution via a deep ensemble from a NAS run, then
	// contention + noise from concurrent duplicates, with the ensemble's
	// frame-wide OoD flags excluded. The one duplicate-set pass of that
	// calibration window also gives step 2.1's floor.
	var cal Calibration
	res.OoD, cal, err = runOoDStep(cfg, f, appFrame, split, res.Golden.AbsLogErrors)
	if err != nil {
		return nil, fmt.Errorf("core: OoD step: %w", err)
	}
	res.Floor, res.Noise = cal.Floor, cal.Noise

	res.Breakdown = buildBreakdown(res)
	return res, nil
}

// buildBreakdown converts the step results into Fig 7 pie shares.
func buildBreakdown(res *FrameworkResult) Breakdown {
	b := Breakdown{BaselinePct: res.Baseline.MedianAbsPct}
	e0 := res.Baseline.MedianAbsPct
	if e0 <= 0 {
		return b
	}
	share := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x / e0
	}
	b.AppModeling = share(e0 - res.Floor.FloorPct)
	b.TuningRemoved = share(e0 - res.Tuned.MedianAbsPct)
	b.SystemModeling = share(res.Tuned.MedianAbsPct - res.Golden.MedianAbsPct)
	if res.WithLMT != nil {
		b.LMTRemoved = share(res.Tuned.MedianAbsPct - res.WithLMT.MedianAbsPct)
	}
	b.OoD = res.OoD.ErrShare * res.Golden.MedianAbsPct / e0
	b.Aleatory = share(res.Noise.FloorPct)
	b.Unexplained = 1 - b.AppModeling - b.SystemModeling - b.OoD - b.Aleatory
	return b
}

// tuneGBT runs the step-2.2 grid search, selecting on validation error and
// retraining the winner on the training split. The grid shares one binned
// view of the training rows, and the tree-count axis is warm-started
// (hpo.GBTGridSearch): losses are bit-identical to training every candidate
// separately, at a fraction of the training cost.
func tuneGBT(cfg FrameworkConfig, split dataset.Split, tt dataset.TargetTransform) (*gbt.Model, gbt.Params, error) {
	grid := hpo.GBTGrid(cfg.GridTrees, cfg.GridDepths, cfg.GridSubsample, cfg.GridColsample)
	if len(grid) == 0 {
		return nil, gbt.Params{}, fmt.Errorf("core: empty hyperparameter grid")
	}
	for i := range grid {
		grid[i].Seed = cfg.Seed
	}
	trainY := tt.ForwardAll(split.Train.Y())
	bd, err := gbt.Bin(split.Train.Rows(), grid[0].NumBins)
	if err != nil {
		return nil, gbt.Params{}, err
	}
	valRows := split.Val.Rows()
	valY := split.Val.Y()
	_, best, err := hpo.GBTGridSearch(grid, bd, trainY, valRows, func(valPred []float64) (float64, error) {
		return EvaluatePredictions(valPred, valY).MedianAbsLog, nil
	}, cfg.Workers)
	if err != nil {
		return nil, gbt.Params{}, err
	}
	params := best.Candidate
	m, err := gbt.TrainBinned(params, bd, trainY)
	return m, params, err
}

// trainEnriched trains a tuned model on f's application features (appFrame)
// plus one extra column from f.
func trainEnriched(f, appFrame *dataset.Frame, cfg FrameworkConfig, tt dataset.TargetTransform, extraCol string) (*gbt.Model, dataset.Split, error) {
	col, err := f.Column(extraCol)
	if err != nil {
		return nil, dataset.Split{}, err
	}
	enriched, err := appFrame.WithColumn(extraCol, col)
	if err != nil {
		return nil, dataset.Split{}, err
	}
	return trainTunedOn(enriched, cfg, tt)
}

// trainWithPrefixes trains a tuned model on the named feature families.
func trainWithPrefixes(f *dataset.Frame, cfg FrameworkConfig, tt dataset.TargetTransform, prefixes ...string) (*gbt.Model, dataset.Split, error) {
	sub, err := f.SelectPrefix(prefixes...)
	if err != nil {
		return nil, dataset.Split{}, err
	}
	return trainTunedOn(sub, cfg, tt)
}

// trainTunedOn splits a frame with the framework seed (so row partitions
// align across feature sets) and grid-tunes a model on it.
func trainTunedOn(frame *dataset.Frame, cfg FrameworkConfig, tt dataset.TargetTransform) (*gbt.Model, dataset.Split, error) {
	split, err := frame.SplitRandom(rng.New(cfg.Seed), cfg.TrainFrac, cfg.ValFrac)
	if err != nil {
		return nil, dataset.Split{}, err
	}
	m, _, err := tuneGBT(cfg, split, tt)
	return m, split, err
}

// runOoDStep runs the NAS, builds the deep ensemble, calibrates it on the
// test split, classifies the WHOLE frame (the noise litmus must exclude OoD
// jobs everywhere), and attributes OoD error on the test split. absErrs are
// the golden model's per-job errors on its test split, whose random
// permutation matches split's because both use the framework seed.
func runOoDStep(cfg FrameworkConfig, f, appFrame *dataset.Frame, split dataset.Split, absErrs []float64) (OoDReport, Calibration, error) {
	tt := dataset.TargetTransform{}
	scaler := dataset.FitScaler(split.Train, true)
	var scaled [4][][]float64
	for i, fr := range []*dataset.Frame{split.Train, split.Val, split.Test, appFrame} {
		var err error
		if scaled[i], err = scaler.Transform(fr); err != nil {
			return OoDReport{}, Calibration{}, err
		}
	}
	trainRows, valRows, testRows, allRows := scaled[0], scaled[1], scaled[2], scaled[3]
	trainY := tt.ForwardAll(split.Train.Y())
	valY := split.Val.Y()

	evalNN := func(p nn.Params) (float64, error) {
		p.Epochs = cfg.NNEpochs
		m, err := nn.Train(p, trainRows, trainY)
		if err != nil {
			return 0, err
		}
		return EvaluatePredictions(m.PredictAll(valRows), valY).MedianAbsLog, nil
	}
	evCfg := hpo.EvolutionConfig{
		Population:     cfg.NASPopulation,
		Generations:    cfg.NASGenerations,
		TournamentSize: 3,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
	}
	if evCfg.TournamentSize > evCfg.Population {
		evCfg.TournamentSize = evCfg.Population
	}
	results, _, err := hpo.Evolve(evCfg, hpo.SampleNN, hpo.MutateNN, evalNN)
	if err != nil {
		return OoDReport{}, Calibration{}, err
	}

	top := hpo.TopK(results, cfg.EnsembleSize)
	paramSets := make([]nn.Params, len(top))
	for i, r := range top {
		p := r.Candidate
		p.Epochs = cfg.NNEpochs
		paramSets[i] = p
	}
	ens, err := uq.TrainEnsemble(paramSets, trainRows, trainY, cfg.Workers)
	if err != nil {
		return OoDReport{}, Calibration{}, err
	}

	preds := ens.PredictAll(testRows)
	cal, err := Calibrate(f, preds, absErrs, cfg.EUThreshold, ens.PredictAll(allRows), cfg.NoiseTolSec)
	if err != nil {
		return OoDReport{}, Calibration{}, fmt.Errorf("noise estimate: %w", err)
	}
	truth := make([]bool, split.Test.Len())
	for i := range truth {
		truth[i] = split.Test.Meta(i).OoD
	}
	rep, err := AttributeOoD(preds, absErrs, cal.Threshold, truth)
	return rep, cal, err
}

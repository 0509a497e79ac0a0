// Package iotaxo reproduces "A Taxonomy of Error Sources in HPC I/O
// Machine Learning Models" (Isakov et al., SC 2022) as a Go library.
//
// The package is organized around three layers:
//
//   - a data-generating process for HPC I/O logs (ThetaLike, CoriLike,
//     Generate) that implements the paper's Eq. 3 decomposition
//     φ = fa + fg + fl + fn with known ground truth;
//   - machine-learning models of I/O throughput (gradient-boosted trees,
//     neural networks, deep ensembles) with hyperparameter search;
//   - the paper's contribution: litmus tests that attribute a model's
//     error to application modeling, system modeling, generalization,
//     contention, and inherent noise, plus the five-step framework
//     (RunTaxonomy) that applies them to a system.
//
// A minimal session:
//
//	frame, _ := iotaxo.Generate(iotaxo.ThetaLike(20000))
//	res, _ := iotaxo.RunTaxonomy("theta", frame, iotaxo.PaperConfig())
//	fmt.Println(res.Breakdown)
//
// The cmd/ tools and examples/ directories exercise the same API; the
// benchmarks in bench_test.go regenerate every figure and table of the
// paper's evaluation.
package iotaxo

import (
	"iotaxo/internal/core"
	"iotaxo/internal/dataset"
	"iotaxo/internal/gbt"
	"iotaxo/internal/nn"
	"iotaxo/internal/system"
	"iotaxo/internal/uq"
)

// Dataset layer.
type (
	// Frame is a tabular job dataset: feature columns, measured
	// throughput targets, and per-job metadata.
	Frame = dataset.Frame
	// Meta is per-job metadata (application, timing, duplicate key,
	// optional ground truth).
	Meta = dataset.Meta
	// Split is a train/validation/test partition.
	Split = dataset.Split
	// TargetTransform converts throughputs to and from log10 space.
	TargetTransform = dataset.TargetTransform
	// Scaler standardizes feature columns for neural models.
	Scaler = dataset.Scaler
)

// System simulation layer.
type (
	// SystemConfig parameterizes a simulated HPC machine.
	SystemConfig = system.Config
	// Machine is a generated system history (weather, load, jobs).
	Machine = system.Machine
	// Job is one simulated job with its ground-truth decomposition.
	Job = system.Job
)

// Model layer.
type (
	// GBTParams are gradient-boosted-tree hyperparameters.
	GBTParams = gbt.Params
	// GBTModel is a trained gradient-boosted-tree ensemble.
	GBTModel = gbt.Model
	// NNParams are neural-network hyperparameters.
	NNParams = nn.Params
	// NNModel is a trained feedforward network.
	NNModel = nn.Model
	// Ensemble is a deep ensemble with AU/EU decomposition.
	Ensemble = uq.Ensemble
	// Regressor is any model predicting log10 throughput from a row.
	Regressor = core.Regressor
)

// Taxonomy layer.
type (
	// FrameworkConfig sets the budgets of the five-step framework.
	FrameworkConfig = core.FrameworkConfig
	// FrameworkResult carries every artifact of a framework run.
	FrameworkResult = core.FrameworkResult
	// Breakdown is the Fig-7 error attribution.
	Breakdown = core.Breakdown
	// DuplicateFloor is litmus test 1's result.
	DuplicateFloor = core.DuplicateFloor
	// NoiseEstimate is litmus test 4's result.
	NoiseEstimate = core.NoiseEstimate
	// OoDReport is litmus test 3's result.
	OoDReport = core.OoDReport
	// ErrorReport scores a model under the paper's Eq. 6 metric.
	ErrorReport = core.ErrorReport
	// Window is every litmus estimate over one window of jobs.
	Window = core.Window
)

// ThetaLike returns the configuration of a machine modeled on ALCF Theta's
// 2017-2020 collection (Darshan + Cobalt, no LMT) with numJobs jobs.
func ThetaLike(numJobs int) *SystemConfig { return system.ThetaLike(numJobs) }

// CoriLike returns the configuration of a machine modeled on NERSC Cori's
// 2018-2019 collection (Darshan + LMT) with numJobs jobs.
func CoriLike(numJobs int) *SystemConfig { return system.CoriLike(numJobs) }

// GenerateMachine runs the data-generating process and returns the full
// machine history (jobs with ground truth, weather, load).
func GenerateMachine(cfg *SystemConfig) (*Machine, error) { return system.Generate(cfg) }

// Generate runs the data-generating process and extracts the tabular
// dataset the models train on.
func Generate(cfg *SystemConfig) (*Frame, error) {
	m, err := system.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return m.Frame()
}

// RunTaxonomy applies the five-step framework (Sec. X) to a frame and
// returns the error breakdown.
func RunTaxonomy(name string, f *Frame, cfg FrameworkConfig) (*FrameworkResult, error) {
	return core.RunFramework(name, f, cfg)
}

// PaperConfig returns the full framework protocol; FastConfig a test-sized
// one.
func PaperConfig() FrameworkConfig { return core.PaperConfig() }

// FastConfig returns a framework configuration with small budgets.
func FastConfig() FrameworkConfig { return core.FastConfig() }

// EstimateDuplicateFloor runs litmus test 1 (application modeling bound).
func EstimateDuplicateFloor(f *Frame) (DuplicateFloor, error) {
	return core.EstimateDuplicateFloor(f)
}

// EstimateNoise runs litmus test 4 (contention + inherent noise bound)
// with the given OoD exclusion flags (may be nil) and concurrency
// tolerance in seconds.
func EstimateNoise(f *Frame, oodFlags []bool, tolSec float64) (NoiseEstimate, error) {
	return core.EstimateNoise(f, oodFlags, tolSec)
}

// EstimateWindow runs litmus tests 1, 3 and 4 over one window of jobs from
// a single duplicate-set pass: the duplicate floor, the noise with the OoD
// rows left out and, given log10 predictions, the served error and its OoD
// share. predLog and oodFlags are aligned with f's rows; either may be nil.
func EstimateWindow(f *Frame, predLog []float64, oodFlags []bool, tolSec float64) (Window, error) {
	return core.EstimateWindow(f, predLog, oodFlags, tolSec)
}

// Evaluate scores a model on a frame under the paper's error metric.
func Evaluate(m Regressor, f *Frame) ErrorReport { return core.Evaluate(m, f) }

// FitScaler learns per-column standardization (optionally after a signed
// log1p transform) from a training frame, for neural models.
func FitScaler(train *Frame, logTransform bool) *Scaler {
	return dataset.FitScaler(train, logTransform)
}

// DefaultGBTParams mirrors the XGBoost defaults the paper starts from
// (100 trees of depth 6).
func DefaultGBTParams() GBTParams { return gbt.DefaultParams() }

// TrainGBT fits a gradient-boosted-tree model to rows and log10 targets.
func TrainGBT(p GBTParams, rows [][]float64, yLog []float64) (*GBTModel, error) {
	return gbt.Train(p, rows, yLog)
}

// DefaultNNParams returns a reasonable network configuration.
func DefaultNNParams() NNParams { return nn.DefaultParams() }

// TrainNN fits a feedforward network to standardized rows and targets.
func TrainNN(p NNParams, rows [][]float64, y []float64) (*NNModel, error) {
	return nn.Train(p, rows, y)
}

// TrainEnsemble trains a deep ensemble (heteroscedastic heads forced) for
// uncertainty decomposition.
func TrainEnsemble(paramSets []NNParams, rows [][]float64, y []float64, workers int) (*Ensemble, error) {
	return uq.TrainEnsemble(paramSets, rows, y, workers)
}

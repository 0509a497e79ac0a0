package serve

import (
	"math"

	"iotaxo/internal/uq"
)

// Taxonomy guardrail: every prediction that leaves the service carries a
// diagnosis of which error source in the paper's taxonomy dominates it.
// The serving-time signals are the ones the litmus tests established
// offline — the deep ensemble's epistemic uncertainty flags generalization
// errors (Sec. VIII), and the concurrent-duplicate noise floor bounds what
// any model could achieve (Sec. IX). A consumer that ignores an `ood` flag
// or trusts a prediction below the noise floor is misreading the model.

// Error-source labels attached to responses.
const (
	// SourceGeneralization: the job sits outside the training
	// distribution (high EU); the prediction is extrapolation.
	SourceGeneralization = "generalization"
	// SourceInherentNoise: the predictive spread is at the system's
	// measured noise floor; the residual error is irreducible.
	SourceInherentNoise = "inherent-noise"
	// SourceModeling: in-distribution with spread above the noise floor;
	// remaining error is application/system modeling error, reducible by
	// better features or tuning (Secs. VI-VII).
	SourceModeling = "app/system-modeling"
	// SourceUnguarded: the model version ships without an ensemble, so no
	// per-request attribution is possible.
	SourceUnguarded = "unguarded"
)

// errorSources lists every label above. The duplicate cache stores a
// Guard's ErrorSource as an index into it (cache.go), and refuses to cache
// a label that is missing here.
var errorSources = [...]string{SourceGeneralization, SourceInherentNoise, SourceModeling, SourceUnguarded}

// GuardConfig is the per-model-version guardrail calibration, computed at
// training time and persisted in the registry manifest.
type GuardConfig struct {
	// EUThreshold is the epistemic-uncertainty (standard deviation) cutoff
	// above which a job is flagged OoD — the operating point
	// uq.StableThreshold picks from the inverse cumulative error curve.
	// Zero disables OoD flagging.
	EUThreshold float64 `json:"eu_threshold"`
	// NoiseSigmaLog is the Bessel-corrected sigma of log10 throughput
	// among concurrent duplicates (litmus test 4). Zero means the noise
	// floor was not measurable on the training collection.
	NoiseSigmaLog float64 `json:"noise_sigma_log"`
	// NoiseFloorPct is the matching median-error floor, kept for the
	// response annotation (e.g. 0.057 for Theta's ±5.71%).
	NoiseFloorPct float64 `json:"noise_floor_pct"`
}

// noiseFloorSlack is how far above the measured noise sigma a prediction's
// aleatory spread may sit and still count as "at the floor" — generous
// because sigma itself is estimated from small duplicate sets.
const noiseFloorSlack = 1.5

// Guard is the taxonomy annotation attached to one prediction.
type Guard struct {
	// EU and AU are the ensemble's epistemic and aleatory standard
	// deviations for this row (log10 space).
	EU float64 `json:"eu"`
	AU float64 `json:"au"`
	// OoD is true when EU exceeds the calibrated threshold: the model is
	// extrapolating and the prediction should not be trusted blindly.
	OoD bool `json:"ood"`
	// AtNoiseFloor is true when the aleatory spread is within slack of
	// the system's measured ∆t=0 noise sigma: the prediction is as sharp
	// as the system allows.
	AtNoiseFloor bool `json:"at_noise_floor"`
	// NoiseFloorPct echoes the system's irreducible median-error floor.
	NoiseFloorPct float64 `json:"noise_floor_pct,omitempty"`
	// ErrorSource names the dominant taxonomy class for this prediction.
	ErrorSource string `json:"error_source"`
}

// Diagnose classifies one ensemble prediction under the calibration.
func (c GuardConfig) Diagnose(p uq.Prediction) Guard {
	g := Guard{
		EU:            math.Sqrt(p.EU),
		AU:            math.Sqrt(p.AU),
		NoiseFloorPct: c.NoiseFloorPct,
	}
	g.OoD = c.EUThreshold > 0 && g.EU > c.EUThreshold
	g.AtNoiseFloor = c.NoiseSigmaLog > 0 && g.AU <= noiseFloorSlack*c.NoiseSigmaLog
	switch {
	case g.OoD:
		g.ErrorSource = SourceGeneralization
	case g.AtNoiseFloor:
		g.ErrorSource = SourceInherentNoise
	default:
		g.ErrorSource = SourceModeling
	}
	return g
}

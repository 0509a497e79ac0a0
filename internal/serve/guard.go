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

// Error-source labels attached to responses: a function of the ood flag
// beside them (Guard.ErrorSource).
const (
	// SourceGeneralization: the job sits outside the training
	// distribution (high EU); the prediction is extrapolation.
	SourceGeneralization = "generalization"
	// SourceModeling: in-distribution; remaining error is
	// application/system modeling error, reducible by better features or
	// tuning (Secs. VI-VII), or the system's own noise, which the floor in
	// GuardConfig bounds over a window of jobs, not per prediction.
	SourceModeling = "app/system-modeling"
)

// GuardConfig is the per-model-version guardrail calibration, computed at
// training time and persisted in the bundle's header.
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
	// NoiseFloorPct is the matching median-error floor (e.g. 0.057 for
	// Theta's ±5.71%), reported per version by /v1/models.
	NoiseFloorPct float64 `json:"noise_floor_pct"`
}

// Guard is the taxonomy annotation attached to one prediction.
type Guard struct {
	// EU and AU are the ensemble's epistemic and aleatory standard
	// deviations for this row (log10 space).
	EU float64 `json:"eu"`
	AU float64 `json:"au"`
	// OoD is true when EU exceeds the calibrated threshold: the model is
	// extrapolating and the prediction should not be trusted blindly.
	OoD bool `json:"ood"`
	// set tells a diagnosed guard, even one whose fields are all zero, from
	// none (a bundle without an ensemble).
	set bool
}

// ErrorSource names the dominant taxonomy class for this prediction, the
// one its ood flag implies; "" when there is no guard.
func (g Guard) ErrorSource() string {
	switch {
	case !g.set:
		return ""
	case g.OoD:
		return SourceGeneralization
	}
	return SourceModeling
}

// Diagnose classifies one ensemble prediction under the calibration.
func (c GuardConfig) Diagnose(p uq.Prediction) Guard {
	g := Guard{EU: math.Sqrt(p.EU), AU: math.Sqrt(p.AU), set: true}
	g.OoD = c.EUThreshold > 0 && g.EU > c.EUThreshold
	return g
}

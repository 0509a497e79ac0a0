package drift

import (
	"time"

	"iotaxo/internal/serve"
)

// Policy engine: consumes the detector's closed windows and drives the
// lifecycle state machine per system.
//
//	stable ──(PSI/KS or error streak >= ConfirmWindows)──► retraining
//	retraining ──(publish; incumbent pinned first)───────► staged
//	staged ──(PromoteAfter consecutive clean windows)────► promote → watching
//	staged ──(WatchWindows without a verdict)────────────► abandon  → stable
//	watching ──(RollbackAfter regressing windows)────────► rollback → stable
//	watching ──(WatchWindows without regression)─────────► keep     → stable
//
// A "clean" staged window requires the candidate to answer feedback at
// least as well as the incumbent (MAE(log) <= PromoteSlack × incumbent's)
// and, when shadow evidence is required (MinMirrored > 0), enough mirrored
// canary rows with zero evaluation errors. A "regressing" watched window
// is the mirror image: feedback error beyond both the noise-explained bar
// and RegressFactor times the predecessor's error — or, only when no
// ground-truth evidence arrived this window, shadow divergence from the
// predecessor at or above RollbackMAELog. Ground truth outranks
// divergence: a candidate that just fixed a real drift *should* diverge
// from its stale predecessor, so divergence alone must never override
// feedback that proves the promotion good. Both evaluation phases are
// bounded by WatchWindows — a candidate whose feedback dries up is
// abandoned (the incumbent stays pinned and serving) rather than wedging
// the control plane. Every verdict is recorded as a Decision whether or
// not it is applied (AutoPromote/AutoRollback off records but does not
// touch the registry).

// Decision actions recorded by the control plane.
const (
	ActionSignal        = "signal"         // drift confirmed
	ActionBreakerOpen   = "breaker-open"   // retrain suppressed by the circuit breaker
	ActionRetrainFailed = "retrain-failed" // orchestrator gave up
	ActionPin           = "pin"            // incumbent pinned pre-publish
	ActionPublish       = "publish"        // candidate version published
	ActionPromote       = "promote"        // candidate promoted to serving
	ActionAbandon       = "abandon"        // staged candidate timed out unevaluated
	ActionRollback      = "rollback"       // regressed version rolled back
	ActionKeep          = "keep"           // watch ended without regression
)

// Decision is one control-plane verdict, exposed at GET /v1/drift.
type Decision struct {
	Time    time.Time `json:"time"`
	System  string    `json:"system"`
	Action  string    `json:"action"`
	Version int       `json:"version,omitempty"`
	Reason  string    `json:"reason"`
	// Applied reports whether the verdict was executed against the
	// registry (false when AutoPromote/AutoRollback is off).
	Applied bool `json:"applied"`
}

// maxDecisions bounds the retained decision log.
const maxDecisions = 64

// record appends a decision and bumps its per-system action counter.
// st.mu must be held by the caller (for the counter); the decision log has
// its own lock so readers never touch system state.
func (c *Controller) record(st *systemState, d Decision) {
	d.Time = time.Now()
	d.System = st.system
	st.actions[d.Action]++
	c.decMu.Lock()
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > maxDecisions {
		c.decisions = c.decisions[len(c.decisions)-maxDecisions:]
	}
	c.decMu.Unlock()
	c.cfg.Logger.Info("drift decision",
		"system", d.System, "action", d.Action, "version", d.Version,
		"applied", d.Applied, "reason", d.Reason)
}

// Decisions returns the retained decision log, oldest first.
func (c *Controller) Decisions() []Decision {
	c.decMu.Lock()
	defer c.decMu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// shadowWindow is the per-window delta of one shadow comparison.
type shadowWindow struct {
	mirrored uint64
	errors   uint64
	maeLog   float64
}

// shadowDelta computes the window-over-window delta for one (primary,
// target, role) comparison from the cumulative shadow snapshots, updating
// the remembered cumulative state. Caller holds st.mu.
func (st *systemState) shadowDelta(snaps []serve.ShadowSnapshot, primary, target int, role string) shadowWindow {
	var w shadowWindow
	for _, s := range snaps {
		if s.Primary != primary || s.Target != target || s.Role != role {
			continue
		}
		key := serve.ShadowKey{System: s.System, Primary: s.Primary, Target: s.Target, Role: s.Role}
		prev := st.lastShadow[key]
		st.lastShadow[key] = s
		if s.Mirrored > prev.Mirrored {
			w.mirrored = s.Mirrored - prev.Mirrored
			// Recover the window mean from the cumulative means.
			w.maeLog = (s.MAELog*float64(s.Mirrored) - prev.MAELog*float64(prev.Mirrored)) / float64(w.mirrored)
		}
		if s.Errors > prev.Errors {
			w.errors = s.Errors - prev.Errors
		}
		return w
	}
	return w
}

// tickSystem runs one tick for one system: active-change handling, window
// close, detection, and the phase machine.
func (c *Controller) tickSystem(st *systemState, reg *serve.Registry) {
	active, err := reg.ActiveVersion(st.system)
	if err != nil {
		return
	}
	activeMV, err := reg.Get(st.system, active)
	if err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()

	// React to the serving default changing under us (a promote we made, an
	// operator action, or a reload auto-tracking a new version): re-anchor
	// the detector on the new bundle's reference and start the rollback
	// watch — unless the "new" version is one the policy already rejected
	// (watching it against the version it was rolled back to would invert
	// the comparison and ping-pong the registry).
	if st.lastActive == 0 {
		st.lastActive = active
	}
	if active != st.lastActive {
		prev := st.lastActive
		st.lastActive = active
		st.setReference(activeMV)
		st.staged = 0
		st.cleanStreak = 0
		if st.phase != PhaseRetraining {
			if !st.rejected[active] && !st.rejected[prev] && versionRegistered(reg, st.system, prev) {
				st.phase = PhaseWatching
				st.watchPrev = prev
				st.watchLeft = c.cfg.WatchWindows
				st.regressStreak = 0
				st.compareVersion = prev
			} else {
				st.phase = PhaseStable
				st.compareVersion = 0
			}
		}
	}
	if st.refVersion == 0 {
		st.setReference(activeMV)
	}

	rep := st.closeWindow(c.cfg, activeMV.Guard)
	if !rep.evaluated {
		return
	}
	if st.cooldown > 0 {
		st.cooldown--
	}

	// Detector streaks.
	if rep.shiftBreach {
		st.psiStreak++
	} else {
		st.psiStreak = 0
	}
	if rep.errBreach {
		st.errStreak++
	} else if rep.actN >= c.cfg.MinFeedbackRows {
		st.errStreak = 0
	}

	snaps := c.svc.Metrics().ShadowSnapshots(st.system)

	switch st.phase {
	case PhaseStable:
		c.maybeRetrain(st, rep)
	case PhaseStaged:
		c.evalStaged(st, reg, active, rep, snaps)
	case PhaseWatching:
		c.evalWatching(st, reg, active, rep, snaps)
	}
}

// maybeRetrain fires the orchestrator once drift is confirmed.
func (c *Controller) maybeRetrain(st *systemState, rep windowReport) {
	if st.cooldown > 0 {
		return
	}
	kind := ""
	switch {
	case st.psiStreak >= c.cfg.ConfirmWindows:
		kind = "psi"
	case st.errStreak >= c.cfg.ConfirmWindows:
		kind = "error"
	default:
		return
	}
	st.signals[kind]++
	reason := driftReason(kind, rep)
	if st.feedback.Len() < c.cfg.MinRetrainRows {
		// Confirmed drift but not enough labeled rows to retrain from —
		// keep signalling (the metrics series climbs) and re-check next
		// window as feedback accumulates.
		st.retrains["skipped"]++
		c.record(st, Decision{Action: ActionSignal, Reason: reason + "; waiting for feedback rows", Applied: false})
		st.cooldown = 1
		return
	}
	// The retrain breaker (consecutive retrain/publish failures) gates the
	// launch: a systematically failing orchestrator — bad feedback schema,
	// unwritable registry root — must not hot-loop expensive training runs.
	// Allow also admits the half-open probe after the cooldown, so the
	// launch below doubles as the probe.
	if c.cfg.Breaker != nil && !c.cfg.Breaker.Allow() {
		st.retrains["suppressed"]++
		c.record(st, Decision{Action: ActionBreakerOpen,
			Reason: reason + "; retrain breaker open, waiting for cooldown probe", Applied: false})
		st.cooldown = 1
		return
	}
	c.record(st, Decision{Action: ActionSignal, Reason: reason, Applied: true})
	c.launchRetrainLocked(st, reason)
}

func driftReason(kind string, rep windowReport) string {
	if kind == "psi" {
		return "feature shift: " + rep.psiMaxFeature +
			" PSI " + fmtFloat(rep.psiMax) + ", KS max " + fmtFloat(rep.ksMax)
	}
	return "error above noise floor: MAE(log) " + fmtFloat(rep.actMAE) +
		" vs noise-explained " + fmtFloat(rep.noiseMAE)
}

// evalStaged judges the staged candidate on this window's evidence.
func (c *Controller) evalStaged(st *systemState, reg *serve.Registry, active int, rep windowReport, snaps []serve.ShadowSnapshot) {
	if st.staged == 0 || !versionRegistered(reg, st.system, st.staged) {
		// The candidate vanished (manual delete, failed reload): abandon.
		st.phase = PhaseStable
		st.staged = 0
		st.compareVersion = 0
		return
	}
	// Evaluation is bounded: a candidate whose evidence never arrives
	// (feedback dried up, mirror starved) must not pin the incumbent and
	// block the control plane forever.
	st.stageLeft--
	if st.stageLeft < 0 {
		c.record(st, Decision{
			Action:  ActionAbandon,
			Version: st.staged,
			Reason: "no promotion verdict within " + fmtInt(c.cfg.WatchWindows) +
				" staged windows; incumbent stays pinned and serving",
			Applied: true,
		})
		st.phase = PhaseStable
		st.staged = 0
		st.compareVersion = 0
		st.cleanStreak = 0
		st.cooldown = c.cfg.ConfirmWindows
		return
	}
	sw := st.shadowDelta(snaps, active, st.staged, serve.RoleCanary)
	if c.cfg.MinMirrored > 0 {
		if sw.mirrored < uint64(c.cfg.MinMirrored) {
			return // not enough canary evidence this window; keep waiting
		}
		if sw.errors > 0 {
			st.cleanStreak = 0
			return
		}
	}
	if rep.cmpN < c.cfg.MinFeedbackRows || rep.actN < c.cfg.MinFeedbackRows {
		return // no champion/challenger evidence this window
	}
	if rep.cmpMAE <= c.cfg.PromoteSlack*rep.actMAE {
		st.cleanStreak++
	} else {
		st.cleanStreak = 0
		return
	}
	if st.cleanStreak < c.cfg.PromoteAfter {
		return
	}
	d := Decision{
		Action:  ActionPromote,
		Version: st.staged,
		Reason: "candidate MAE(log) " + fmtFloat(rep.cmpMAE) + " <= incumbent " + fmtFloat(rep.actMAE) +
			" for " + fmtInt(st.cleanStreak) + " windows",
		Applied: c.cfg.AutoPromote,
	}
	if c.cfg.AutoPromote {
		if err := reg.Promote(st.system, st.staged); err != nil {
			d.Applied = false
			d.Reason += "; promote failed: " + err.Error()
		}
	}
	c.record(st, d)
	if d.Applied {
		// Re-anchor immediately — no served row should fall into the gap
		// between the promotion and the next tick — and open the rollback
		// watch against the version that was just replaced.
		promoted := st.staged
		prev := st.lastActive
		if mvNew, err := reg.Get(st.system, promoted); err == nil {
			st.lastActive = promoted
			st.setReference(mvNew)
		}
		st.phase = PhaseWatching
		st.watchPrev = prev
		st.watchLeft = c.cfg.WatchWindows
		st.regressStreak = 0
		st.compareVersion = prev
		st.staged = 0
		st.cleanStreak = 0
	} else {
		// Verdict recorded; hold the candidate staged for an operator and
		// stop re-announcing every window.
		st.cleanStreak = 0
	}
}

// evalWatching judges a freshly promoted (or externally swapped) active
// version against its predecessor for auto-rollback.
func (c *Controller) evalWatching(st *systemState, reg *serve.Registry, active int, rep windowReport, snaps []serve.ShadowSnapshot) {
	if st.watchPrev == 0 || !versionRegistered(reg, st.system, st.watchPrev) {
		st.phase = PhaseStable
		st.compareVersion = 0
		return
	}
	sw := st.shadowDelta(snaps, active, st.watchPrev, serve.RoleShadow)
	shadowRegress := c.cfg.MinMirrored > 0 &&
		sw.mirrored >= uint64(c.cfg.MinMirrored) && sw.maeLog >= c.cfg.RollbackMAELog
	// The feedback check anchors on the predecessor: its error is the
	// trusted baseline, and its noise calibration sets the alarm bar — the
	// watched bundle's own sigma is untrusted, since a degraded retrain
	// can inflate it and mask its errors.
	bar := c.cfg.ErrorMAEFallback
	if prevMV, err := reg.Get(st.system, st.watchPrev); err == nil {
		if noise := NoiseExplainedMAE(prevMV.Guard.NoiseSigmaLog); noise > 0 {
			bar = c.cfg.ErrorFactor * noise
		}
	}
	feedbackEvidence := rep.cmpN >= c.cfg.MinFeedbackRows && rep.actN >= c.cfg.MinFeedbackRows
	feedbackRegress := feedbackEvidence &&
		rep.actMAE > c.cfg.RegressFactor*rep.cmpMAE && rep.actMAE > bar
	// Ground truth outranks divergence: shadow mae_log is an unsigned
	// distance, and a promotion that fixed a real drift legitimately
	// diverges from its stale predecessor — so divergence is only
	// actionable in windows without feedback evidence.
	var evidence, regress bool
	switch {
	case feedbackEvidence:
		evidence, regress = true, feedbackRegress
	case c.cfg.MinMirrored > 0 && sw.mirrored >= uint64(c.cfg.MinMirrored):
		evidence, regress = true, shadowRegress
	}
	if evidence {
		if regress {
			st.regressStreak++
		} else {
			st.regressStreak = 0
		}
	}
	if st.regressStreak >= c.cfg.RollbackAfter {
		reason := "regression for " + fmtInt(st.regressStreak) + " windows: "
		if feedbackRegress {
			reason += "MAE(log) " + fmtFloat(rep.actMAE) + " vs predecessor " + fmtFloat(rep.cmpMAE)
		} else {
			reason += "shadow divergence " + fmtFloat(sw.maeLog) + " >= " + fmtFloat(c.cfg.RollbackMAELog)
		}
		d := Decision{Action: ActionRollback, Version: active, Reason: reason, Applied: c.cfg.AutoRollback}
		if c.cfg.AutoRollback {
			if _, err := reg.Rollback(st.system); err != nil {
				// No promotion to unwind (the bad version arrived by
				// auto-tracking a reload): pin the predecessor instead.
				if perr := reg.Promote(st.system, st.watchPrev); perr != nil {
					d.Applied = false
					d.Reason += "; rollback failed: " + perr.Error()
				}
			}
			if d.Applied {
				st.rejected[active] = true
				// Re-anchor on the restored version immediately.
				if av, err := reg.ActiveVersion(st.system); err == nil {
					if mvNew, err := reg.Get(st.system, av); err == nil {
						st.lastActive = av
						st.setReference(mvNew)
					}
				}
			}
		}
		c.record(st, d)
		st.phase = PhaseStable
		st.compareVersion = 0
		st.regressStreak = 0
		st.cooldown = c.cfg.ConfirmWindows
		return
	}
	st.watchLeft--
	if st.watchLeft <= 0 {
		c.record(st, Decision{
			Action:  ActionKeep,
			Version: active,
			Reason:  "no regression within " + fmtInt(c.cfg.WatchWindows) + " watched windows",
			Applied: true,
		})
		st.phase = PhaseStable
		st.compareVersion = 0
		st.regressStreak = 0
	}
}

func versionRegistered(reg *serve.Registry, system string, version int) bool {
	_, err := reg.Get(system, version)
	return err == nil
}

package drift

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"iotaxo/internal/dataset"
	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// Retraining orchestrator. A confirmed drift signal hands the feedback
// window to a background retrain:
//
//  1. the window becomes a training frame in arrival order, each job once
//     (windowFrame);
//  2. serve.Build, the builder bootstrap uses too, sweeps a small
//     warm-started GBT grid validated on the newest quarter (drift means
//     the newest rows are the distribution that matters), refits the
//     winner on the whole window, fits the guardrail ensemble, EU
//     threshold and reference histograms, and measures the noise floor
//     (litmus test 4) on the same window;
//  3. the incumbent is pinned (so the candidate cannot serve untested),
//     and the bundle is published with serve.SaveVersion — artifacts
//     first, manifest last via temp-file+rename — for the live Reloader
//     to pick up; with no on-disk root it is registered directly.
//
// A window whose rows carry no start times, or too few concurrent
// duplicates, cannot measure the floor: the candidate then keeps the
// incumbent's, the publish Decision says so, and the retrain is counted
// as outcome "sigma_carried".

// launchRetrainLocked transitions the system into PhaseRetraining and
// starts the background retrain. Caller holds st.mu.
func (c *Controller) launchRetrainLocked(st *systemState, reason string) {
	window := st.feedback.Recent(0)
	st.phase = PhaseRetraining
	st.retrains["started"]++
	c.retrains.Add(1)
	go func() {
		defer c.retrains.Done()
		c.retrain(st, window, reason)
	}()
}

// retrain runs one full retrain-and-publish cycle off the tick loop. The
// outcome feeds the retrain breaker: consecutive failures trip it (pausing
// automatic launches), any success closes it.
func (c *Controller) retrain(st *systemState, window []feedbackRow, reason string) {
	mv, carried, err := c.trainAndPublish(st.system, window)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		c.cfg.Breaker.Failure()
		st.retrains["failed"]++
		c.record(st, Decision{Action: ActionRetrainFailed, Reason: err.Error(), Applied: false})
		st.phase = PhaseStable
		st.cooldown = c.cfg.ConfirmWindows
		return
	}
	c.cfg.Breaker.Success()
	st.retrains["published"]++
	reason = "retrained on " + fmtInt(mv.TrainedOn) + " feedback rows (" + reason + ")"
	if carried != "" {
		st.retrains["sigma_carried"]++
		reason += "; " + carried
	}
	c.record(st, Decision{Action: ActionPublish, Version: mv.Version, Reason: reason, Applied: true})
	// The publish pinned the incumbent, so the candidate stages as a
	// canary; track it through promotion. If a reload raced us and the
	// candidate is not registered yet, evalStaged keeps waiting for it via
	// versionRegistered on the next ticks.
	st.phase = PhaseStaged
	st.staged = mv.Version
	st.stageLeft = c.cfg.WatchWindows
	st.compareVersion = mv.Version
	st.cleanStreak = 0
}

// trainAndPublish builds a candidate bundle from the feedback window
// (newest first, as the ring returns it) and publishes it. carried is
// non-empty when the window could not measure the noise floor and the
// incumbent's was kept, and says why.
func (c *Controller) trainAndPublish(system string, window []feedbackRow) (mv *serve.ModelVersion, carried string, err error) {
	reg := c.svc.Registry()
	active, err := reg.ActiveVersion(system)
	if err != nil {
		return nil, "", err
	}
	incumbent, err := reg.Get(system, active)
	if err != nil {
		return nil, "", err
	}
	frame, err := windowFrame(incumbent.Columns, window)
	if err != nil {
		return nil, "", err
	}

	// Version: one past the highest registered for this system.
	version := 0
	for _, info := range reg.List() {
		if info.System == system && info.Version > version {
			version = info.Version
		}
	}
	version++

	mv, sets, err := serve.Build(system, version, frame, c.cfg.Retrain.SweepGrid(version), c.cfg.Retrain)
	if err != nil {
		return nil, "", fmt.Errorf("drift: retraining %s: %w", system, err)
	}
	if sets < serve.MinNoiseSets {
		mv.Guard.NoiseSigmaLog = incumbent.Guard.NoiseSigmaLog
		mv.Guard.NoiseFloorPct = incumbent.Guard.NoiseFloorPct
		carried = "noise floor carried from v" + fmtInt(active) + ": the window holds " + fmtInt(sets) +
			" concurrent duplicate sets, fewer than " + fmtInt(serve.MinNoiseSets)
	}

	// Pin the incumbent before the candidate becomes loadable: auto-track
	// must not put an unevaluated model into the serving path.
	if cur, err := reg.ActiveVersion(system); err == nil {
		if err := reg.Promote(system, cur); err != nil {
			return nil, "", fmt.Errorf("drift: pinning incumbent %s v%d: %w", system, cur, err)
		}
		st := c.state(system)
		st.mu.Lock()
		c.record(st, Decision{Action: ActionPin, Version: cur,
			Reason: "incumbent pinned; candidate v" + fmtInt(version) + " stages as canary", Applied: true})
		st.mu.Unlock()
	}

	if c.cfg.Root == "" {
		return mv, carried, reg.Add(mv)
	}
	// The training work above is minutes; the publish is an fsync. Retry a
	// transient registry-root hiccup instead of discarding the model.
	publish := resilience.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	if err := resilience.Retry(context.Background(), c.cfg.PublishRetries, publish, func() error {
		return serve.SaveVersion(c.cfg.Root, mv)
	}); err != nil {
		return nil, "", err
	}
	// Nudge the reloader so the candidate is registered within this tick
	// rather than one poll later; a failed poll just means the regular
	// polling loop picks the directory up instead.
	if rel := c.svc.Reloader(); rel != nil {
		_, _ = rel.Poll()
	}
	return mv, carried, nil
}

// windowFrame turns the window (newest first) into a training frame in
// arrival order. A row whose feature bits, start, app and actual all equal
// an earlier row's is the same job sent again — a retried POST, a loader
// sampling with replacement — and is kept once: trained twice it would
// weigh double, and as its own zero-spread duplicate it would shrink σ.
func windowFrame(cols []string, window []feedbackRow) (*dataset.Frame, error) {
	frame, err := dataset.NewFrame(cols)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(window))
	var key []byte
	put := func(v float64) { key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v)) }
	for i := len(window) - 1; i >= 0; i-- {
		fr := window[i]
		key = key[:0]
		for _, v := range fr.row {
			put(v)
		}
		put(fr.meta.Start)
		put(fr.y)
		key = append(key, fr.meta.App...)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		meta := fr.meta
		meta.JobID = frame.Len()
		if err := frame.Append(fr.row, fr.y, meta); err != nil {
			return nil, fmt.Errorf("drift: feedback row %d: %w", frame.Len(), err)
		}
	}
	return frame, nil
}

package drift

import (
	"maps"
	"slices"
	"sort"
	"strconv"

	"iotaxo/internal/obs"
)

// Exposition: the control plane renders its own ioserve_drift_* series
// into the service's /metrics output (registered as a collector in New)
// and a structured status report at GET /v1/drift. Everything is derived
// from the per-system state under its own lock — no counter is touched on
// the predict path beyond the detector's window accumulation.

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
func fmtInt(v int) string       { return strconv.Itoa(v) }

// topFeatures bounds the per-feature drift listing in SystemStatus.
const topFeatures = 10

// SystemStatus is one system's drift-monitor view at GET /v1/drift.
type SystemStatus struct {
	System string `json:"system"`
	Phase  string `json:"phase"`
	// ActiveVersion is the serving default; ReferenceVersion the bundle
	// whose training-time histograms the detector bins against (0 when the
	// bundle ships no reference — the system cannot be monitored).
	ActiveVersion    int `json:"active_version"`
	ReferenceVersion int `json:"reference_version"`
	// StagedVersion is the retrained candidate awaiting promotion, if any.
	StagedVersion int `json:"staged_version,omitempty"`
	// WatchedAgainst is the predecessor a fresh promotion is compared to.
	WatchedAgainst int `json:"watched_against,omitempty"`
	// Windows / ObservedRows / FeedbackRows are lifetime totals;
	// WindowRows is the current (open) window's traffic.
	Windows      uint64 `json:"windows"`
	ObservedRows uint64 `json:"observed_rows"`
	FeedbackRows uint64 `json:"feedback_rows"`
	WindowRows   uint64 `json:"window_rows"`
	BufferRows   int    `json:"buffer_rows"`
	// Latest closed-window statistics.
	PSIMax        float64        `json:"psi_max"`
	PSIMaxFeature string         `json:"psi_max_feature,omitempty"`
	KSMax         float64        `json:"ks_max"`
	ErrorMAELog   float64        `json:"error_mae_log"`
	NoiseMAELog   float64        `json:"noise_mae_log"`
	TopFeatures   []FeatureDrift `json:"top_features,omitempty"`
	// Streaks and counters.
	PSIStreak     int               `json:"psi_streak"`
	ErrorStreak   int               `json:"error_streak"`
	CleanStreak   int               `json:"clean_streak"`
	RegressStreak int               `json:"regress_streak"`
	Signals       map[string]uint64 `json:"signals,omitempty"`
	Retrains      map[string]uint64 `json:"retrains,omitempty"`
	Rejected      []int             `json:"rejected_versions,omitempty"`
}

// StatusReport is the GET /v1/drift body.
type StatusReport struct {
	Systems   []SystemStatus `json:"systems"`
	Decisions []Decision     `json:"decisions,omitempty"`
}

// Status snapshots every monitored system.
func (c *Controller) Status() StatusReport {
	states := c.states()
	out := StatusReport{Decisions: c.Decisions()}
	for _, st := range states {
		out.Systems = append(out.Systems, c.systemStatus(st))
	}
	return out
}

func (c *Controller) systemStatus(st *systemState) SystemStatus {
	active := 0
	if av, err := c.svc.Registry().ActiveVersion(st.system); err == nil {
		active = av
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s := SystemStatus{
		System:           st.system,
		Phase:            st.phase,
		ActiveVersion:    active,
		ReferenceVersion: st.refVersion,
		StagedVersion:    st.staged,
		Windows:          st.windowsTotal,
		ObservedRows:     st.observedTotal,
		FeedbackRows:     st.feedbackTotal,
		WindowRows:       st.rowsObserved,
		BufferRows:       st.bufferLen(),
		PSIMax:           st.psiMax,
		PSIMaxFeature:    st.psiMaxFeature,
		KSMax:            st.ksMax,
		ErrorMAELog:      st.lastErrMAE,
		NoiseMAELog:      st.lastNoiseMAE,
		PSIStreak:        st.psiStreak,
		ErrorStreak:      st.errStreak,
		CleanStreak:      st.cleanStreak,
		RegressStreak:    st.regressStreak,
		Signals:          copyCounts(st.signals),
		Retrains:         copyCounts(st.retrains),
	}
	if st.phase == PhaseWatching {
		s.WatchedAgainst = st.watchPrev
	}
	n := len(st.lastDrift)
	if n > topFeatures {
		n = topFeatures
	}
	s.TopFeatures = append([]FeatureDrift(nil), st.lastDrift[:n]...)
	for v := range st.rejected {
		s.Rejected = append(s.Rejected, v)
	}
	sort.Ints(s.Rejected)
	return s
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// actionsSnapshot copies the per-action decision counters.
func (c *Controller) actionsSnapshot(st *systemState) map[string]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return copyCounts(st.actions)
}

// Collect appends the drift series; it is registered with serve.Metrics
// so the series appear on GET /metrics.
func (c *Controller) Collect(dst []obs.PromFamily) []obs.PromFamily {
	states := c.states()
	if len(states) == 0 {
		return dst
	}
	statuses := make([]SystemStatus, len(states))
	actions := make([]map[string]uint64, len(states))
	for i, st := range states {
		statuses[i] = c.systemStatus(st)
		actions[i] = c.actionsSnapshot(st)
	}

	series := []struct {
		name, help, typ string
		val             func(SystemStatus) float64
	}{
		{"ioserve_drift_windows_total", "Detector windows evaluated.", "counter",
			func(s SystemStatus) float64 { return float64(s.Windows) }},
		{"ioserve_drift_observed_rows_total", "Served rows binned against the reference histograms.", "counter",
			func(s SystemStatus) float64 { return float64(s.ObservedRows) }},
		{"ioserve_drift_feedback_rows_total", "Ground-truth feedback rows ingested.", "counter",
			func(s SystemStatus) float64 { return float64(s.FeedbackRows) }},
		{"ioserve_drift_psi_max", "Largest per-feature PSI in the last closed window.", "gauge",
			func(s SystemStatus) float64 { return s.PSIMax }},
		{"ioserve_drift_ks_max", "Largest per-feature KS statistic in the last closed window.", "gauge",
			func(s SystemStatus) float64 { return s.KSMax }},
		{"ioserve_drift_error_mae_log", "Rolling feedback MAE(log10) of the active version.", "gauge",
			func(s SystemStatus) float64 { return s.ErrorMAELog }},
		{"ioserve_drift_noise_mae_log", "MAE(log10) explained by the system's measured noise floor.", "gauge",
			func(s SystemStatus) float64 { return s.NoiseMAELog }},
		{"ioserve_drift_staged_version", "Retrained candidate awaiting promotion (0 = none).", "gauge",
			func(s SystemStatus) float64 { return float64(s.StagedVersion) }},
		{"ioserve_drift_buffer_rows", "Feedback rows buffered for the next retrain.", "gauge",
			func(s SystemStatus) float64 { return float64(s.BufferRows) }},
	}
	for _, sr := range series {
		f := obs.PromFamily{Name: sr.name, Help: sr.help, Type: sr.typ}
		for _, s := range statuses {
			f.Add(obs.Labels("system", s.System), sr.val(s))
		}
		dst = append(dst, f)
	}

	labeled := []struct {
		name, help, label string
		pick              func(int) map[string]uint64
	}{
		{"ioserve_drift_signals_total", "Confirmed drift signals by kind.", "kind",
			func(i int) map[string]uint64 { return statuses[i].Signals }},
		{"ioserve_drift_retrains_total", "Automated retrains by outcome.", "outcome",
			func(i int) map[string]uint64 { return statuses[i].Retrains }},
		{"ioserve_drift_decisions_total", "Control-plane decisions by action.", "action",
			func(i int) map[string]uint64 { return actions[i] }},
	}
	for _, ln := range labeled {
		f := obs.PromFamily{Name: ln.name, Help: ln.help, Type: "counter"}
		for i, s := range statuses {
			m := ln.pick(i)
			for _, k := range slices.Sorted(maps.Keys(m)) {
				f.Add(obs.Labels("system", s.System, ln.label, k), float64(m[k]))
			}
		}
		dst = append(dst, f)
	}
	return dst
}

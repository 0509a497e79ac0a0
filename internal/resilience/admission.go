package resilience

import (
	"strconv"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
)

// Class is a request priority class for admission decisions.
type Class uint8

const (
	// ClassPredict is normal prediction traffic: shed at the soft inflight
	// cap and when the moving p99 exceeds the latency threshold.
	ClassPredict Class = iota
	// ClassControl is feedback and admin traffic: it keeps the drift loop
	// and operators alive during overload, so it sheds only at the hard
	// cap. Shedding feedback while shedding predictions would blind the
	// drift detectors exactly when the system is misbehaving.
	ClassControl
)

// ShedReason labels why a request was rejected (the {reason=...} metric
// label and the 429 body).
type ShedReason string

const (
	// ShedQueue: inflight predict requests exceeded the soft cap.
	ShedQueue ShedReason = "queue"
	// ShedLatency: the moving p99 of accepted requests exceeded the
	// configured threshold while the gate was under pressure.
	ShedLatency ShedReason = "latency"
	// ShedHard: total inflight (all classes) exceeded the hard cap.
	ShedHard ShedReason = "hard"
)

// shedReasons orders the reasons for deterministic exposition.
var shedReasons = [...]ShedReason{ShedQueue, ShedLatency, ShedHard}

// GateConfig tunes an admission gate.
type GateConfig struct {
	// MaxInflight is the soft cap on concurrently admitted predict
	// requests (<= 0 defaults to 256 so a latency-only gate still has a
	// backstop).
	MaxInflight int
	// HardLimit bounds total inflight across all classes (<= 0 defaults to
	// 2x MaxInflight). Control traffic is only shed here.
	HardLimit int
	// P99Threshold enables the latency trigger: once the moving p99 of
	// accepted requests exceeds it (and the gate is under pressure),
	// predict requests are shed until the estimate decays. 0 disables.
	P99Threshold time.Duration
	// P99Window is the moving-p99 recompute window (<= 0 uses the obs
	// default of 128 observations).
	P99Window int
	// RetryAfter is the advice sent in 429 Retry-After headers (<= 0
	// defaults to 1s).
	RetryAfter time.Duration
}

// Gate is a bounded admission gate: Admit before doing work, Release when
// done. All methods are safe on a nil receiver (admission disabled), so
// handlers can thread a gate unconditionally.
type Gate struct {
	cfg GateConfig
	// pressureFloor is the inflight level below which the latency trigger
	// stays quiet: with no concurrency there is no queueing to shed, and
	// admitting some traffic is what lets the windowed p99 decay after an
	// overload ends.
	pressureFloor int64

	p99      *obs.MovingP99
	inflight atomic.Int64
	admitted atomic.Uint64
	shed     [len(shedReasons)]atomic.Uint64
}

// NewGate builds a gate under cfg.
func NewGate(cfg GateConfig) *Gate {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.HardLimit <= 0 {
		cfg.HardLimit = 2 * cfg.MaxInflight
	}
	if cfg.HardLimit < cfg.MaxInflight {
		cfg.HardLimit = cfg.MaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	g := &Gate{cfg: cfg, p99: obs.NewMovingP99(cfg.P99Window)}
	g.pressureFloor = int64(cfg.MaxInflight) / 2
	if g.pressureFloor < 1 {
		g.pressureFloor = 1
	}
	return g
}

// Admit asks to run one request of the given class. On true the caller
// owns one inflight slot and must call Release exactly once; on false the
// request was shed for the returned reason and Release must not be called.
func (g *Gate) Admit(class Class) (bool, ShedReason) {
	if g == nil {
		return true, ""
	}
	in := g.inflight.Add(1)
	if in > int64(g.cfg.HardLimit) {
		return false, g.reject(ShedHard)
	}
	if class == ClassPredict {
		if in > int64(g.cfg.MaxInflight) {
			return false, g.reject(ShedQueue)
		}
		if g.cfg.P99Threshold > 0 && in > g.pressureFloor &&
			g.p99.Armed() && g.p99.Value() > int64(g.cfg.P99Threshold) {
			return false, g.reject(ShedLatency)
		}
	}
	g.admitted.Add(1)
	return true, ""
}

func (g *Gate) reject(reason ShedReason) ShedReason {
	g.inflight.Add(-1)
	for i, r := range shedReasons {
		if r == reason {
			g.shed[i].Add(1)
			break
		}
	}
	return reason
}

// Release returns the slot taken by a successful Admit. A non-negative
// took feeds the accepted-request latency into the moving p99 the latency
// trigger watches; pass a negative duration to release without observing
// (control traffic, or work that never ran).
func (g *Gate) Release(took time.Duration) {
	if g == nil {
		return
	}
	g.inflight.Add(-1)
	if took >= 0 {
		g.p99.Observe(int64(took))
	}
}

// RetryAfterHeader renders the configured retry advice as whole seconds
// for the Retry-After response header (minimum 1).
func (g *Gate) RetryAfterHeader() string {
	secs := int64(g.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// GateStatus is the admission slice of the /v1/resilience view.
type GateStatus struct {
	MaxInflight         int               `json:"max_inflight"`
	HardLimit           int               `json:"hard_limit"`
	Inflight            int64             `json:"inflight"`
	Admitted            uint64            `json:"admitted_total"`
	Shed                map[string]uint64 `json:"shed_total"`
	P99Seconds          float64           `json:"p99_seconds"`
	P99ThresholdSeconds float64           `json:"p99_threshold_seconds,omitempty"`
}

// Status snapshots the gate.
func (g *Gate) Status() GateStatus {
	st := GateStatus{
		MaxInflight: g.cfg.MaxInflight,
		HardLimit:   g.cfg.HardLimit,
		Inflight:    g.inflight.Load(),
		Admitted:    g.admitted.Load(),
		Shed:        make(map[string]uint64, len(shedReasons)),
		P99Seconds:  g.p99.Seconds(),
	}
	for i, r := range shedReasons {
		st.Shed[string(r)] = g.shed[i].Load()
	}
	if g.cfg.P99Threshold > 0 {
		st.P99ThresholdSeconds = g.cfg.P99Threshold.Seconds()
	}
	return st
}

// Collect appends the ioserve_admission_* series. Shed reasons render in
// fixed order so scrapes are deterministic.
func (g *Gate) Collect(dst []obs.PromFamily) []obs.PromFamily {
	shed := obs.PromFamily{Name: "ioserve_admission_shed_total", Help: "Requests shed by the gate, by reason.", Type: "counter"}
	for i, r := range shedReasons {
		shed.Add(obs.Labels("reason", string(r)), float64(g.shed[i].Load()))
	}
	return append(dst,
		obs.Scalar("ioserve_admission_admitted_total", "Requests admitted by the gate.", "counter", float64(g.admitted.Load())),
		shed,
		obs.Scalar("ioserve_admission_inflight", "Currently admitted requests.", "gauge", float64(g.inflight.Load())),
		obs.Scalar("ioserve_admission_p99_seconds", "Moving p99 of accepted-request latency (0 until armed).", "gauge", g.p99.Seconds()))
}

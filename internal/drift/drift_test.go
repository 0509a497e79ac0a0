package drift

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/dataset"
	"iotaxo/internal/obs"
	"iotaxo/internal/rng"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// Shared fixture: a theta-like frame and a bundle trained on it, plus a
// deliberately degraded sibling (trained on permuted targets, so its
// predictions carry no signal). Training once keeps the suite fast.

var (
	fixOnce  sync.Once
	fixFrame *dataset.Frame
	fixV1    *serve.ModelVersion
	fixBadV2 *serve.ModelVersion
	fixErr   error
)

func fixtureCfg() serve.BootstrapConfig {
	return serve.BootstrapConfig{
		Systems:      []string{"theta"},
		Jobs:         700,
		Versions:     1,
		Trees:        24,
		Depth:        5,
		EnsembleSize: 3,
		Epochs:       4,
		Seed:         11,
	}
}

func fixture(t testing.TB) (*dataset.Frame, *serve.ModelVersion, *serve.ModelVersion) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := fixtureCfg()
		sysCfg := system.ThetaLike(cfg.Jobs)
		sysCfg.Seed = cfg.Seed
		m, err := system.Generate(sysCfg)
		if err != nil {
			fixErr = err
			return
		}
		fixFrame, err = m.Frame()
		if err != nil {
			fixErr = err
			return
		}
		fixV1, err = serve.BuildVersion("theta", 1, fixFrame, cfg)
		if err != nil {
			fixErr = err
			return
		}
		// Degraded v2: same features, targets permuted — the model trains
		// fine but its predictions are noise with respect to reality.
		bad, err := permuteTargets(fixFrame, 13)
		if err != nil {
			fixErr = err
			return
		}
		fixBadV2, err = serve.BuildVersion("theta", 2, bad, cfg)
		if err != nil {
			fixErr = err
			return
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixFrame, fixV1, fixBadV2
}

func permuteTargets(f *dataset.Frame, seed uint64) (*dataset.Frame, error) {
	out, err := dataset.NewFrame(f.Columns())
	if err != nil {
		return nil, err
	}
	perm := rng.New(seed).Perm(f.Len())
	for i := 0; i < f.Len(); i++ {
		if err := out.Append(f.Row(i), f.Y()[perm[i]], f.Meta(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// harness is one disk-backed serving stack with a drift controller driven
// by manual ticks.
type harness struct {
	dir string
	svc *serve.Service
	rel *serve.Reloader
	ctl *Controller
}

func newHarness(t *testing.T, cfg Config, bundles ...*serve.ModelVersion) *harness {
	t.Helper()
	dir := t.TempDir()
	for _, mv := range bundles {
		if err := serve.SaveVersion(dir, mv); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{
		MaxBatch:  16,
		CacheSize: 4096,
	})
	t.Cleanup(svc.Close)
	rel, err := serve.NewReloader(svc, dir, 0) // manual polls
	if err != nil {
		t.Fatal(err)
	}
	cfg.Root = dir
	cfg.Interval = time.Hour // ticks driven manually
	ctl := New(svc, cfg)
	t.Cleanup(ctl.Close)
	return &harness{dir: dir, svc: svc, rel: rel, ctl: ctl}
}

// feedWindow pushes one window of live traffic plus its ground-truth
// feedback and closes it with a tick. Traffic and feedback are separate
// channels by design: only real predicts fill the detector's traffic
// window (feedback scoring is quiet), so the harness sends both.
func (h *harness) feedWindow(t *testing.T, rows [][]float64, actual []float64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < len(rows); i += 10 {
		end := i + 10
		if end > len(rows) {
			end = len(rows)
		}
		if _, _, err := h.svc.Predict(ctx, "theta", 0, rows[i:end]); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ctl.Feedback(ctx, FeedbackRequest{System: "theta", Rows: rows[i:end], Actual: actual[i:end]}); err != nil {
			t.Fatal(err)
		}
	}
	h.ctl.Tick()
}

// waitPhase polls until the system leaves PhaseRetraining.
func (h *harness) waitRetrain(t *testing.T) SystemStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := h.status(t)
		if st.Phase != PhaseRetraining {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain did not finish; status %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (h *harness) status(t *testing.T) SystemStatus {
	t.Helper()
	for _, s := range h.ctl.Status().Systems {
		if s.System == "theta" {
			return s
		}
	}
	t.Fatal("no status for theta")
	return SystemStatus{}
}

func shiftRows(rows [][]float64, factor float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		s := make([]float64, len(r))
		for j, v := range r {
			s[j] = v * factor
		}
		out[i] = s
	}
	return out
}

func testConfig() Config {
	return Config{
		PSIThreshold:     0.2,
		KSThreshold:      0.3,
		ConfirmWindows:   2,
		MinWindowRows:    30,
		MinFeedbackRows:  8,
		ErrorFactor:      2,
		ErrorMAEFallback: 0.1,
		RetrainWindow:    2048,
		MinRetrainRows:   100,
		AutoPromote:      true,
		AutoRollback:     true,
		PromoteAfter:     2,
		RollbackAfter:    2,
		WatchWindows:     50,
		PromoteSlack:     1.2,
		Retrain: serve.BootstrapConfig{
			Trees: 24, Depth: 5, EnsembleSize: 2, Epochs: 3, Seed: 9,
		},
	}
}

// TestNoFalseAlarm pins the detector's specificity: stationary traffic
// whose residuals sit exactly at the system's noise floor must never
// confirm drift or trigger a retrain.
func TestNoFalseAlarm(t *testing.T) {
	frame, v1, _ := fixture(t)
	h := newHarness(t, testConfig(), v1)
	r := rng.New(3)
	ctx := context.Background()

	sigma := v1.Guard.NoiseSigmaLog
	if sigma <= 0 {
		sigma = 0.02 // still far below the fallback alarm bar
	}
	rows := frame.Rows()
	for window := 0; window < 6; window++ {
		for i := 0; i < 150; i++ {
			row := rows[r.Intn(len(rows))]
			res, _, err := h.svc.Predict(ctx, "theta", 0, [][]float64{row})
			if err != nil {
				t.Fatal(err)
			}
			// Ground truth = prediction + noise at the measured floor: the
			// irreducible error a perfect model would still show.
			actual := math.Pow(10, res[0].Log10Throughput+r.NormAt(0, sigma))
			if _, err := h.ctl.Feedback(ctx, FeedbackRequest{System: "theta", Rows: [][]float64{row}, Actual: []float64{actual}}); err != nil {
				t.Fatal(err)
			}
		}
		h.ctl.Tick()
	}
	st := h.status(t)
	if st.Windows < 6 {
		t.Fatalf("only %d windows evaluated", st.Windows)
	}
	if len(st.Signals) != 0 {
		t.Errorf("stationary noise-floor traffic raised drift signals: %v", st.Signals)
	}
	if len(st.Retrains) != 0 {
		t.Errorf("stationary noise-floor traffic triggered retrains: %v", st.Retrains)
	}
	if st.Phase != PhaseStable {
		t.Errorf("phase = %s, want stable", st.Phase)
	}
	if st.PSIMax >= 0.2 {
		t.Errorf("stationary PSI max = %v, want < 0.2", st.PSIMax)
	}
}

// TestE2EDriftRetrainPromote is the acceptance demo: a sustained feature
// shift is detected, a retrain is launched automatically, the new version
// is published through the on-disk registry (reloader protocol), staged
// as a canary behind a pin, and auto-promoted once it beats the incumbent
// on ground truth for k consecutive windows — with the decisions visible
// at /metrics and in the status report.
func TestE2EDriftRetrainPromote(t *testing.T) {
	frame, v1, _ := fixture(t)
	h := newHarness(t, testConfig(), v1)
	r := rng.New(5)

	// Sanity: one tick to anchor the detector on v1's reference.
	h.ctl.Tick()
	if st := h.status(t); st.ReferenceVersion != 1 {
		t.Fatalf("detector not anchored on v1: %+v", st)
	}

	// Drifted regime: every feature scaled 3x, targets unchanged — the
	// incumbent extrapolates, the relation stays learnable.
	shifted := shiftRows(frame.Rows(), 3)
	ys := frame.Y()
	window := func() ([][]float64, []float64) {
		rows := make([][]float64, 120)
		actual := make([]float64, 120)
		for i := range rows {
			j := r.Intn(len(shifted))
			rows[i] = shifted[j]
			actual[i] = ys[j]
		}
		return rows, actual
	}

	// Two breaching windows confirm drift and launch the retrain.
	for w := 0; w < 2; w++ {
		rows, actual := window()
		h.feedWindow(t, rows, actual)
	}
	st := h.status(t)
	if st.Phase != PhaseRetraining && st.Phase != PhaseStaged {
		t.Fatalf("drift not confirmed after 2 shifted windows: %+v", st)
	}
	if st.PSIMax < 0.2 {
		t.Errorf("shifted-window PSI max = %v, want >= 0.2", st.PSIMax)
	}

	st = h.waitRetrain(t)
	if st.Phase != PhaseStaged || st.StagedVersion != 2 {
		t.Fatalf("retrain did not stage v2: %+v", st)
	}
	// The incumbent was pinned, so the candidate must not be serving yet.
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 1 {
		t.Fatalf("candidate went live before evaluation: active v%d", av)
	}
	// The bundle really was published on disk through the manifest
	// protocol (the reloader loaded it back).
	if _, err := h.svc.Registry().Get("theta", 2); err != nil {
		t.Fatalf("published v2 not registered: %v", err)
	}

	// Clean windows: the candidate beats the incumbent on ground truth.
	for w := 0; w < 4; w++ {
		if av, _ := h.svc.Registry().ActiveVersion("theta"); av == 2 {
			break
		}
		rows, actual := window()
		h.feedWindow(t, rows, actual)
	}
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 2 {
		t.Fatalf("candidate not auto-promoted; status %+v decisions %+v", h.status(t), h.ctl.Decisions())
	}

	// The retrain's publish carries its reference the way SaveVersion writes
	// it: the artifact on disk, the histograms on the reloaded bundle.
	if _, err := os.Stat(filepath.Join(h.dir, "theta", "v2", "reference.bin")); err != nil {
		t.Errorf("published candidate has no reference artifact: %v", err)
	}
	if mv, err := h.svc.Registry().Get("theta", 2); err != nil || len(mv.Reference) != len(mv.Columns) {
		t.Errorf("reloaded candidate carries no reference histograms: %v", err)
	}

	// Decisions and metrics surface the whole loop.
	var sawSignal, sawPublish, sawPromote bool
	for _, d := range h.ctl.Decisions() {
		switch d.Action {
		case ActionSignal:
			sawSignal = true
		case ActionPublish:
			sawPublish = sawPublish || d.Version == 2
		case ActionPromote:
			sawPromote = sawPromote || (d.Version == 2 && d.Applied)
		}
	}
	if !sawSignal || !sawPublish || !sawPromote {
		t.Errorf("decision log incomplete (signal=%v publish=%v promote=%v): %+v",
			sawSignal, sawPublish, sawPromote, h.ctl.Decisions())
	}
	var buf strings.Builder
	if err := obs.WriteFamilies(&buf, h.svc.Metrics().Collect(nil)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`ioserve_drift_windows_total{system="theta"}`,
		`ioserve_drift_psi_max{system="theta"}`,
		`ioserve_drift_retrains_total{system="theta",outcome="published"} 1`,
		`ioserve_drift_decisions_total{system="theta",action="promote"} 1`,
		`ioserve_drift_decisions_total{system="theta",action="publish"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// After promotion the detector re-anchors on the new bundle: drifted
	// traffic is now in-distribution and the loop returns to quiet.
	rows, actual := window()
	h.feedWindow(t, rows, actual)
	st = h.status(t)
	if st.ReferenceVersion != 2 {
		t.Errorf("detector still referenced on v%d after promotion", st.ReferenceVersion)
	}
	if st.PSIMax >= 0.2 {
		t.Errorf("post-promotion PSI max = %v, want < 0.2 (re-anchored)", st.PSIMax)
	}
}

// TestE2EDegradedRollback: a degraded version that reaches the serving
// path (published and auto-tracked live) is rolled back automatically
// once its ground-truth error regresses for k consecutive windows.
func TestE2EDegradedRollback(t *testing.T) {
	frame, v1, badV2 := fixture(t)
	h := newHarness(t, testConfig(), v1)
	r := rng.New(7)

	// Anchor on v1, then let the degraded v2 go live via reload
	// auto-tracking (the unprotected path the policy exists to cover).
	h.ctl.Tick()
	if err := serve.SaveVersion(h.dir, badV2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rel.Poll(); err != nil {
		t.Fatal(err)
	}
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 2 {
		t.Fatalf("degraded v2 not auto-tracked live: active v%d", av)
	}

	rows := frame.Rows()
	ys := frame.Y()
	rolledBack := false
	for w := 0; w < 10 && !rolledBack; w++ {
		batch := make([][]float64, 50)
		actual := make([]float64, 50)
		for i := range batch {
			j := r.Intn(len(rows))
			batch[i] = rows[j]
			actual[i] = ys[j]
		}
		h.feedWindow(t, batch, actual)
		if av, _ := h.svc.Registry().ActiveVersion("theta"); av == 1 {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Fatalf("degraded v2 never rolled back; status %+v decisions %+v", h.status(t), h.ctl.Decisions())
	}
	var sawRollback bool
	for _, d := range h.ctl.Decisions() {
		if d.Action == ActionRollback && d.Version == 2 && d.Applied {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Errorf("no applied rollback decision: %+v", h.ctl.Decisions())
	}
	st := h.status(t)
	if len(st.Rejected) != 1 || st.Rejected[0] != 2 {
		t.Errorf("v2 not marked rejected: %+v", st.Rejected)
	}

	// The rejected version must not be re-promoted even though it is still
	// the highest registered version: further quiet windows stay on v1.
	for w := 0; w < 2; w++ {
		batch := make([][]float64, 40)
		actual := make([]float64, 40)
		for i := range batch {
			j := r.Intn(len(rows))
			batch[i] = rows[j]
			actual[i] = ys[j]
		}
		h.feedWindow(t, batch, actual)
	}
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 1 {
		t.Errorf("rejected v2 came back: active v%d", av)
	}
}

// TestStagedAbandonAndWatchExpiry pins the evaluation-phase budgets: a
// staged candidate whose feedback never arrives is abandoned (incumbent
// stays pinned, control plane unwedged), and a watched promotion with no
// evidence either way is marked kept once the watch budget runs out —
// neither phase may hold the state machine forever.
func TestStagedAbandonAndWatchExpiry(t *testing.T) {
	frame, v1, badV2 := fixture(t)
	cfg := testConfig()
	cfg.WatchWindows = 2
	h := newHarness(t, cfg, v1)
	ctx := context.Background()
	h.ctl.Tick() // anchor on v1

	// Stage a candidate the way the orchestrator would: pin the incumbent,
	// publish v2, and mark it staged — then send traffic but no feedback.
	if err := h.svc.Registry().Promote("theta", 1); err != nil {
		t.Fatal(err)
	}
	if err := serve.SaveVersion(h.dir, badV2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rel.Poll(); err != nil {
		t.Fatal(err)
	}
	st := h.ctl.state("theta")
	st.mu.Lock()
	st.phase = PhaseStaged
	st.staged = 2
	st.stageLeft = cfg.WatchWindows
	st.compareVersion = 2
	st.mu.Unlock()

	trafficWindow := func() {
		for i := 0; i < 4; i++ {
			if _, _, err := h.svc.Predict(ctx, "theta", 0, frame.Rows()[i*10:i*10+10]); err != nil {
				t.Fatal(err)
			}
		}
		h.ctl.Tick()
	}
	for w := 0; w <= cfg.WatchWindows && h.status(t).Phase == PhaseStaged; w++ {
		trafficWindow()
	}
	if s := h.status(t); s.Phase != PhaseStable || s.StagedVersion != 0 {
		t.Fatalf("starved candidate not abandoned: %+v", s)
	}
	var sawAbandon bool
	for _, d := range h.ctl.Decisions() {
		if d.Action == ActionAbandon && d.Version == 2 {
			sawAbandon = true
		}
	}
	if !sawAbandon {
		t.Errorf("no abandon decision: %+v", h.ctl.Decisions())
	}
	if av, _ := h.svc.Registry().ActiveVersion("theta"); av != 1 {
		t.Fatalf("abandon must leave the incumbent serving, got v%d", av)
	}

	// Now promote v2 externally: the policy watches it, and with no
	// feedback and no shadow evidence the watch must still expire into a
	// "keep" rather than wedging.
	if err := h.svc.Registry().Promote("theta", 2); err != nil {
		t.Fatal(err)
	}
	// One window for the change branch to open the watch (its own traffic
	// lands before the re-anchor and does not count), then evidence-free
	// evaluated windows until the budget expires.
	trafficWindow()
	if s := h.status(t); s.Phase != PhaseWatching {
		t.Fatalf("promotion not watched: %+v", s)
	}
	for w := 0; w < cfg.WatchWindows+3 && h.status(t).Phase != PhaseStable; w++ {
		trafficWindow()
	}
	if s := h.status(t); s.Phase != PhaseStable {
		t.Fatalf("evidence-free watch never expired: %+v", s)
	}
	var sawKeep bool
	for _, d := range h.ctl.Decisions() {
		if d.Action == ActionKeep && d.Version == 2 {
			sawKeep = true
		}
	}
	if !sawKeep {
		t.Errorf("no keep decision after watch expiry: %+v", h.ctl.Decisions())
	}
}

package fleet

import (
	"context"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/rng"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// End-to-end fleet harness: three real in-process replicas (full serve
// stack — cache, evaluation slots, guardrails, reloader) over one shared
// registry tree, a router in front, and a kill/restart in the middle of
// concurrent load. Run under -race; the CI race job does.

var (
	e2eOnce sync.Once
	e2eDir  string
	e2eRows [][]float64
	e2eErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if e2eDir != "" {
		os.RemoveAll(e2eDir)
	}
	os.Exit(code)
}

// e2eFixture bootstraps one shared on-disk registry (the fleet's common
// tree) and a pool of real feature rows; both are built once per package
// run — training is the expensive part.
func e2eFixture(t *testing.T) (string, [][]float64) {
	t.Helper()
	e2eOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fleet-e2e-")
		if err != nil {
			e2eErr = err
			return
		}
		e2eDir = dir
		cfg := serve.BootstrapConfig{
			Systems:      []string{"theta"},
			Jobs:         700,
			Versions:     1,
			Trees:        24,
			Depth:        5,
			EnsembleSize: 3,
			Epochs:       4,
			Seed:         11,
		}
		if _, err := serve.Bootstrap(cfg, dir); err != nil {
			e2eErr = err
			return
		}
		sysCfg := system.ThetaLike(cfg.Jobs)
		sysCfg.Seed = cfg.Seed
		machine, err := system.Generate(sysCfg)
		if err != nil {
			e2eErr = err
			return
		}
		frame, err := machine.Frame()
		if err != nil {
			e2eErr = err
			return
		}
		e2eRows = frame.Rows()
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eDir, e2eRows
}

// e2eReplica is one full in-process replica: its own service and reloader
// over the shared tree, its own admission gate, wrapped as a Local.
type e2eReplica struct {
	local *Local
	svc   *serve.Service
}

func newE2EReplica(t *testing.T, name, dir string) *e2eReplica {
	t.Helper()
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{
		Workers:   2,
		CacheSize: 1 << 12,
	})
	t.Cleanup(svc.Close)
	rel, err := serve.NewReloader(svc, dir, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rel.Start()
	t.Cleanup(rel.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 64})
	return &e2eReplica{local: NewLocal(name, svc, gate), svc: svc}
}

// TestFleetE2E is the acceptance harness: 3 replicas, one killed and
// restarted mid-load. Contract: zero lost requests (429 allowed, 5xx
// not), minimal remap around the ejection, the original assignment
// restored on rejoin, and a drift-published version visible on every
// replica.
func TestFleetE2E(t *testing.T) {
	shared, pool := e2eFixture(t)
	// The drift publish below writes v2 into the tree. It gets its own copy,
	// so that the shared tree stays at v1 for every later test of the
	// package (TestMetricsContractGolden pins the active version), in this
	// run and with -count above 1.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(shared)); err != nil {
		t.Fatal(err)
	}
	reps := []*e2eReplica{
		newE2EReplica(t, "replica-0", dir),
		newE2EReplica(t, "replica-1", dir),
		newE2EReplica(t, "replica-2", dir),
	}
	rt, err := NewRouter(RouterConfig{
		HealthInterval:   20 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
	}, reps[0].local, reps[1].local, reps[2].local)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	route := func(row []float64) (string, error) {
		resp, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: row})
		if err != nil {
			return "", err
		}
		return resp.Replicas[0].Replica, nil
	}

	// Baseline assignment over a probe set of distinct rows. Every row goes
	// to its ring owner, so the assignment is deterministic and doubles as
	// the remap oracle.
	probe := pool[:120]
	before := make([]string, len(probe))
	for i, row := range probe {
		if before[i], err = route(row); err != nil {
			t.Fatalf("baseline row %d: %v", i, err)
		}
	}
	victim := before[0]
	var victimRep *e2eReplica
	for _, r := range reps {
		if r.local.Name() == victim {
			victimRep = r
		}
	}

	// Concurrent duplicate-heavy load, running across the kill window.
	// Every worker tracks which replica first served each feature hash,
	// for the fleet-wide locality criterion.
	const workers, perWorker = 8, 60
	type keyTrack struct {
		first   string
		repeats int
		sticky  int
	}
	var (
		loadWG  sync.WaitGroup
		trackMu sync.Mutex
		track   = map[uint64]*keyTrack{}
		sheds   int
		lost    []error
	)
	for w := 0; w < workers; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			r := rng.New(uint64(1000 + w))
			for i := 0; i < perWorker; i++ {
				row := pool[r.Intn(256)] // small pool => duplicate-heavy
				served, err := route(row)
				trackMu.Lock()
				if err != nil {
					if be, ok := err.(*BackendError); ok && be.Status == 429 {
						sheds++
					} else {
						lost = append(lost, err)
					}
					trackMu.Unlock()
					continue
				}
				key := serve.HashKey("theta", 0, row)
				if kt, seen := track[key]; seen {
					kt.repeats++
					if kt.first == served {
						kt.sticky++
					}
				} else {
					track[key] = &keyTrack{first: served}
				}
				trackMu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Mid-load: kill the victim, wait for ejection, check minimal remap,
	// publish a new version, restart the victim, wait for rejoin.
	time.Sleep(20 * time.Millisecond)
	victimRep.local.SetDown(true)
	waitView(t, rt, 3*time.Second, func(v FleetView) bool { return v.Healthy == 2 })

	// Minimal remap: every probe row a survivor owned stays put; the
	// victim's rows moved to survivors.
	for i, row := range probe {
		now, err := route(row)
		if err != nil {
			t.Fatalf("post-ejection row %d: %v", i, err)
		}
		if now == victim {
			t.Fatalf("row %d routed to the ejected replica", i)
		}
		if before[i] != victim && now != before[i] {
			t.Fatalf("row %d moved %s -> %s though its owner survived", i, before[i], now)
		}
	}

	// Drift publish through the shared tree: every live replica's reloader
	// must pick it up, and the router's stats poll must surface it.
	newV, err := serve.BumpVersion(dir, "theta")
	if err != nil {
		t.Fatal(err)
	}

	victimRep.local.SetDown(false)
	waitView(t, rt, 3*time.Second, func(v FleetView) bool { return v.Healthy == 3 })

	// Rejoin restores the original assignment exactly.
	for i, row := range probe {
		now, err := route(row)
		if err != nil {
			t.Fatalf("post-rejoin row %d: %v", i, err)
		}
		if now != before[i] {
			t.Fatalf("after rejoin, row %d routed to %s, originally %s", i, now, before[i])
		}
	}

	loadWG.Wait()

	// Zero lost requests: every load request either succeeded or was shed
	// with a 429 — a kill mid-load must never surface as a 5xx.
	if len(lost) > 0 {
		t.Fatalf("%d requests lost during the kill window; first: %v", len(lost), lost[0])
	}

	// Fleet-wide locality across the whole run, kill window included, over
	// the hashes a *survivor* owns on the full-membership ring: those must
	// stay put the entire time. Victim-owned hashes are excluded by ring
	// ownership, not by who served them first — one first served by a
	// survivor during the down window legitimately snaps back to the victim
	// on rejoin, and that movement is the minimal remap working.
	full := NewRing()
	for _, r := range reps {
		full.Add(r.local.Name())
	}
	repeats, sticky, victimKeys := 0, 0, 0
	for key, kt := range track {
		if full.Owner(key) == victim {
			victimKeys++
			continue
		}
		repeats += kt.repeats
		sticky += kt.sticky
	}
	t.Logf("load: %d requests, %d sheds, %d survivor-key repeats (%d sticky), %d victim keys",
		workers*perWorker, sheds, repeats, sticky, victimKeys)
	if repeats == 0 {
		t.Fatal("load generated no survivor-key repeats; the locality bound checked nothing")
	}
	locality := float64(sticky) / float64(repeats)
	t.Logf("locality: %.1f%% of repeat hashes stayed on their first replica", locality*100)
	if locality <= 0.90 {
		t.Fatalf("cache-hit locality %.1f%% <= 90%% across the kill window", locality*100)
	}

	// The published version lands on every replica (the victim's reloader
	// kept polling while it was "dead" — shared-tree propagation does not
	// depend on fleet membership).
	waitView(t, rt, 5*time.Second, func(v FleetView) bool {
		for _, r := range v.Replicas {
			if r.ActiveVersions["theta"] != newV {
				return false
			}
		}
		return len(v.Replicas) == 3
	})
	for _, rep := range reps {
		fams, err := rep.local.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := activeVersionFromMetrics(t, fams, "theta"); got != newV {
			t.Fatalf("replica %s exposing v%d, want published v%d", rep.local.Name(), got, newV)
		}
	}
}

// activeVersionFromMetrics extracts ioserve_active_version{system=...}
// from one replica's families — the series the router's single-cadence
// scrape rebuilds the fleet version view from.
func activeVersionFromMetrics(t *testing.T, families []obs.PromFamily, sys string) int {
	t.Helper()
	for _, f := range families {
		if f.Name != "ioserve_active_version" {
			continue
		}
		for _, s := range f.Samples {
			if v, ok := obs.LabelValue(s.Labels, "system"); ok && v == sys {
				return int(s.Value)
			}
		}
	}
	t.Fatalf("families have no ioserve_active_version{system=%q}: %+v", sys, families)
	return 0
}

// waitView polls the fleet view until cond holds or the deadline passes.
func waitView(t *testing.T, rt *Router, timeout time.Duration, cond func(FleetView) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond(rt.View()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached the expected state: %+v", rt.View())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteBackend runs the HTTP Predictor against a real ioserve
// handler: same predict core, plus status mapping, health, and the
// degrading stats view.
func TestRemoteBackend(t *testing.T) {
	dir, pool := e2eFixture(t)
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{Workers: 2})
	t.Cleanup(svc.Close)
	set := resilience.NewSet()
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 32})
	set.SetGate(gate)
	svc.Metrics().RegisterCollector(set.Collect)
	ts := httptest.NewServer(serve.NewHandler(svc, serve.HandlerConfig{Gate: gate, Resilience: set}))
	t.Cleanup(ts.Close)

	rem := newTestRemote(t, "replica-http", ts.URL, RemoteConfig{})
	if rem.Name() != "replica-http" {
		t.Fatal("name mangled")
	}
	if err := rem.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	resp, err := predict(context.Background(), rem, &serve.PredictRequest{System: "theta", Rows: pool[:4]})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if resp.Count != 4 || len(resp.Predictions) != 4 {
		t.Fatalf("predict answered %d/%d rows", resp.Count, len(resp.Predictions))
	}

	// Replica-side statuses surface as BackendError with the same code the
	// replica answered.
	_, err = predict(context.Background(), rem, &serve.PredictRequest{System: "nope", Row: pool[0]})
	be, ok := err.(*BackendError)
	if !ok || be.Status != 404 {
		t.Fatalf("unknown system: %v, want 404", err)
	}
	if be.Fault() {
		t.Fatal("a 404 must not count against the breaker")
	}

	// One /metrics scrape replaces the old two-request stats poll: the gate
	// gauge and the active-version series both ride the same exposition.
	fams, err := rem.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !slices.ContainsFunc(fams, func(f obs.PromFamily) bool {
		return f.Name == "ioserve_admission_inflight" && len(f.Samples) == 1 && f.Samples[0].Value == 0
	}) {
		t.Fatalf("scrape missing idle gate gauge: %+v", fams)
	}
	if activeVersionFromMetrics(t, fams, "theta") == 0 {
		t.Fatalf("scrape missing active version: %+v", fams)
	}

	// A fleet router in front of a Remote replica speaks the same contract
	// as over a Local one.
	rt := newTestRouter(t, RouterConfig{}, rem)
	served, errr := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: pool[1]})
	if errr != nil {
		t.Fatalf("route via remote: %v", errr)
	}
	if len(served.Replicas) != 1 || served.Replicas[0].Replica != "replica-http" {
		t.Fatalf("shares %+v", served.Replicas)
	}
}

// newTracedE2EReplica is newE2EReplica with replica-side tracing on
// (retain every request), so stitch tests always find the replica trees.
func newTracedE2EReplica(t *testing.T, name, dir string) *e2eReplica {
	t.Helper()
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{
		Workers:    2,
		CacheSize:  1 << 12,
		TraceEvery: 1,
	})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 64})
	return &e2eReplica{local: NewLocal(name, svc, gate), svc: svc}
}

// findSpan walks a span tree for the first node with the given name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n.Name == name {
		return n
	}
	for i := range n.Children {
		if found := findSpan(&n.Children[i], name); found != nil {
			return found
		}
	}
	return nil
}

// TestStitchedTraceE2E is the cross-process tracing acceptance harness:
// 3 real replicas with tracing on, a tracing router fanning one batch
// across them, and GET-shaped stitching through Router.StitchTrace. The
// stitched tree must span the router and at least 2 replicas, attribute
// per-hop network time as router round trip minus replica-reported total,
// and keep the router stage sum within the routed total. Runs under -race
// in the CI race job.
func TestStitchedTraceE2E(t *testing.T) {
	dir, pool := e2eFixture(t)
	reps := []*e2eReplica{
		newTracedE2EReplica(t, "replica-0", dir),
		newTracedE2EReplica(t, "replica-1", dir),
		newTracedE2EReplica(t, "replica-2", dir),
	}
	rt, err := NewRouter(RouterConfig{
		HealthInterval: time.Hour, // no background prober; deterministic
		TraceEvery:     1,
	}, reps[0].local, reps[1].local, reps[2].local)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)

	// A wide batch of distinct rows spreads across replicas: 120 distinct
	// hashes cannot all land on one of three ring members.
	rows := pool[:120]
	resp, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("routed response carries no fleet trace ID")
	}
	fid, err := obs.ParseTraceID(resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	// Every share must report its replica-side trace IDs (TraceEvery=1 on
	// the replicas retains every sub-request).
	if len(resp.Replicas) < 2 {
		t.Fatalf("batch fanned out to %d replicas, want >= 2: %+v", len(resp.Replicas), resp.Replicas)
	}
	for _, sh := range resp.Replicas {
		if len(sh.TraceIDs) == 0 {
			t.Fatalf("share %s carries no replica trace IDs", sh.Replica)
		}
	}

	st, ok := rt.StitchTrace(context.Background(), fid)
	if !ok {
		t.Fatalf("router did not retain fleet trace %s", resp.TraceID)
	}
	if st.TraceID != resp.TraceID || st.System != "theta" || st.Rows != len(rows) {
		t.Fatalf("stitched header %+v", st)
	}

	// Cross-process span: hops from >= 2 distinct replicas, every one
	// stitched (replicas retain everything, so nothing may be missing),
	// per-hop network time = router round trip minus the replica's own
	// total, and rows conserved across hops.
	hopReplicas := map[string]bool{}
	hopRows := 0
	for _, hop := range st.Hops {
		hopReplicas[hop.Replica] = true
		hopRows += hop.Rows
		if hop.Missing {
			t.Fatalf("hop %+v missing though the replica retains every trace", hop)
		}
		if hop.TraceID == "" {
			t.Fatalf("hop %+v carries no replica trace ID", hop)
		}
		if hop.NetworkNs < 0 || hop.NetworkNs > hop.DurationNs {
			t.Fatalf("hop network time out of range: %+v", hop)
		}
	}
	if len(hopReplicas) < 2 {
		t.Fatalf("stitched trace spans %d replicas, want >= 2", len(hopReplicas))
	}
	if hopRows != len(rows) {
		t.Fatalf("hops carry %d rows, want %d", hopRows, len(rows))
	}

	// Tree shape: request root -> fanout -> per-replica hop nodes, each
	// with a network child and the replica's own span tree spliced in.
	if st.Spans.Name != "request" {
		t.Fatalf("root span %q", st.Spans.Name)
	}
	fanout := findSpan(&st.Spans, "fanout")
	if fanout == nil {
		t.Fatal("no fanout span in the stitched tree")
	}
	if len(fanout.Children) != len(st.Hops) {
		t.Fatalf("fanout has %d children for %d hops", len(fanout.Children), len(st.Hops))
	}
	for _, hopNode := range fanout.Children {
		if findSpan(&hopNode, "network") == nil {
			t.Fatalf("hop node %q has no network span", hopNode.Name)
		}
		// The replica's own evaluate stage must appear under the hop —
		// proof the replica-side tree was spliced, not summarized.
		if findSpan(&hopNode, "evaluate") == nil {
			t.Fatalf("hop node %q carries no replica-side evaluate span (tree not spliced)", hopNode.Name)
		}
	}

	// Router stage attribution: stages sum to no more than the total.
	var stageSum int64
	for _, c := range st.Spans.Children {
		if c.Name != "fanout" && c.Name != "admit" && c.Name != "score" && c.Name != "reassemble" {
			t.Fatalf("unexpected router stage span %q", c.Name)
		}
		stageSum += c.DurationNs
	}
	if stageSum > st.TotalNs {
		t.Fatalf("router stages sum to %d ns > total %d ns", stageSum, st.TotalNs)
	}
	if st.TotalNs <= 0 {
		t.Fatal("stitched trace has no total time")
	}
}

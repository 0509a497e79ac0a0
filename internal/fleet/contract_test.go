package fleet

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/drift"
	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// The metric contract: what ioserve and iorouter answer at GET /metrics
// after a fixed sequence, byte for byte, plus an exposition lint over the
// same bodies. `go test ./internal/fleet -run TestMetricsContract -update`
// rewrites testdata/golden/*.metrics from what the handlers answer now.

var updateContract = flag.Bool("update", false, "rewrite testdata/golden/*.metrics from what the /metrics handlers answer now")

// contractEpoch is the one instant every injected clock reads.
var contractEpoch = time.Unix(1_700_000_000, 0)

func contractNow() time.Time { return contractEpoch }

// feedServeMetrics drives one service's built-in series without a clock:
// counters, per-system counters, the latency and stage histograms (fixed
// durations spread over the ladder) and one shadow comparison. k scales
// the counts so two replicas differ and the fleet merge shows a sum.
func feedServeMetrics(m *serve.Metrics, k uint64) {
	m.Requests.Add(40 * k)
	m.Predictions.Add(160 * k)
	m.CacheHits.Add(100 * k)
	m.CacheMisses.Add(60 * k)
	m.OoDFlagged.Add(7 * k)
	m.Batches.Add(12 * k)
	m.BatchedRows.Add(60 * k)
	m.Errors.Add(2 * k)
	m.DeadlineDropped.Add(k)
	m.LatencyNs.Add(123_456_789 * k)
	m.ReloadPolls.Add(9 * k)
	m.ReloadApplied.Add(k)
	m.VersionSwaps.Add(k)
	sys := m.System("theta")
	sys.Requests.Add(38 * k)
	sys.Predictions.Add(160 * k)
	sys.CacheHits.Add(100 * k)
	sys.CacheMisses.Add(60 * k)
	sys.OoDFlagged.Add(7 * k)
	m.System("cori").Errors.Add(2 * k)
	for i := uint64(0); i < 40*k; i++ {
		ns := int64(60_000 * (1 + i%23))
		if i%17 == 0 {
			ns = 40_000_000
		}
		m.Latency.Observe(time.Duration(ns))
		var tm obs.StageTimings
		tm.Ns[obs.StageCacheLookup] = 2_000 + int64(i%5)*1_000
		tm.Ns[obs.StageObserve] = 3_000
		if i%3 != 0 {
			tm.CacheMisses = 4
			tm.Ns[obs.StageQueueWait] = int64(i%7) * 20_000
			tm.Ns[obs.StageWaveAssemble] = 8_000
			tm.Ns[obs.StageEvaluate] = ns / 2
			tm.Ns[obs.StageFinalize] = 5_000
			if i%2 == 0 {
				tm.Ns[obs.StageGuard] = ns / 8
			}
		}
		m.ObserveStages(&tm)
	}
	m.Shadow(serve.ShadowKey{System: "theta", Primary: 1, Target: 2, Role: "canary"})
}

// contractService is one replica service over the shared fixture's tree,
// its built-in series fed by feedServeMetrics.
func contractService(t *testing.T, dir string, opt serve.Options, k uint64) *serve.Service {
	t.Helper()
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, opt)
	t.Cleanup(svc.Close)
	feedServeMetrics(svc.Metrics(), k)
	return svc
}

func contractSLO(t *testing.T) *obs.SLO {
	t.Helper()
	specs, err := obs.ParseSLO("predict:p99=25ms,avail=99.9;control:avail=99")
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSLO(specs)
	s.Now = contractNow
	for i := 0; i < 50; i++ {
		status, d := 200, time.Duration(1+i%9)*time.Millisecond
		switch {
		case i%23 == 0:
			status = 500
		case i%19 == 0:
			d = 60 * time.Millisecond
		}
		s.Observe("predict", status, d)
	}
	s.Observe("control", 200, time.Millisecond)
	return s
}

// ioserveContractBody wires a replica the way cmd/ioserve does — tracer,
// runtime series, a resilience set with a gate and two breakers, the
// drift controller and an SLO, registered in that order — drives it, and
// returns its GET /metrics body.
func ioserveContractBody(t *testing.T, dir string, pool [][]float64) string {
	t.Helper()
	svc := contractService(t, dir, serve.Options{Workers: 2, CacheSize: 1 << 12, TraceEvery: 7, TraceBuffer: 16}, 1)
	m := svc.Metrics()
	m.RegisterCollector(obs.CollectRuntime)
	res := resilience.NewSet()
	m.RegisterCollector(res.Collect)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 3})
	res.SetGate(gate)
	ctrl := drift.New(svc, drift.Config{MinWindowRows: 20, ConfirmWindows: 5})
	t.Cleanup(ctrl.Close)
	slo := contractSLO(t)
	m.RegisterCollector(func(dst []obs.PromFamily) []obs.PromFamily { return slo.Collect("ioserve", dst) })

	tr := svc.Tracer()
	for i := 0; i < 60; i++ {
		tc := tr.Start("theta", 1, contractEpoch)
		tc.Timings.TotalNs = int64(70_000 * (1 + i%19))
		if i%13 == 0 {
			tc.Err = "boom"
		}
		if i%11 == 0 {
			tc.Timings.OoDFlagged = 1
		}
		tc.Shed = i%29 == 0
		tr.Finish(tc)
	}
	for i := 0; i < 3; i++ {
		gate.Admit(resilience.ClassPredict)
	}
	gate.Admit(resilience.ClassPredict) // over the cap: shed
	gate.Release(2 * time.Millisecond)
	publish := res.NewBreaker("publish", resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	reload := res.NewBreaker("reload", resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	publish.Failure()
	publish.Failure()
	reload.Failure()
	reload.Success()
	mv, err := svc.Registry().Get("theta", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.ObserveServed(mv, pool[:24], nil)
	ctrl.Tick() // closes one detector window

	return scrapeHandler(t, serve.NewHandler(svc, serve.HandlerConfig{Gate: gate, Resilience: res}))
}

// iorouterContractBody builds a router over two ungated Local replicas
// (as bench/ runs them) with tracing, an SLO and membership events,
// drives its counters, scrapes the replicas once and returns its GET
// /metrics body.
func iorouterContractBody(t *testing.T, dir string) string {
	t.Helper()
	var locals []Predictor
	for i, name := range []string{"r0", "r1"} {
		svc := contractService(t, dir, serve.Options{Workers: 2, CacheSize: 1 << 12}, uint64(i+1))
		locals = append(locals, NewLocal(name, svc, nil))
	}
	rt, err := NewRouter(RouterConfig{TraceEvery: 7, TraceBuffer: 16, Now: contractNow}, locals...)
	if err != nil {
		t.Fatal(err)
	}
	rt.metrics.requests.Add(30)
	rt.metrics.errors.Add(1)
	rt.metrics.failovers.Add(2)
	for i := 0; i < 30; i++ {
		rs := rt.replicas[[]string{"r0", "r1"}[i%2]]
		rs.requests.Add(1)
		rs.rows.Add(uint64(8 + i%3))
	}
	rt.replicas["r1"].errors.Add(1)
	for i := 0; i < 50; i++ {
		ft := &obs.FleetTrace{ID: uint64(i + 1), System: "theta", TotalNs: int64(90_000 * (1 + i%17))}
		if i%13 == 0 {
			ft.Err = "boom"
		}
		rt.tracer.Finish(ft)
	}
	rt.memlog.Record("r2", obs.MemberEventRegister, "http://r2:8081")
	rt.memlog.Record("r2", obs.MemberEventAdmit, "first health probe passed")
	rt.memlog.Record("r2", obs.MemberEventLeaseExpired, "")
	rt.ProbeOnce()
	return scrapeHandler(t, NewHandler(rt, HandlerConfig{SLO: contractSLO(t)}))
}

func scrapeHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// valueFree names the families pinned by name, HELP, TYPE and labels only:
// Go runtime health and the process-wide mapped cache bytes, which depend
// on what else the test binary has run.
func valueFree(family string) bool {
	return strings.HasPrefix(family, "ioserve_go_") || family == "ioserve_cache_row_bytes"
}

// maskValues zeroes the sample values of valueFree families.
func maskValues(body string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if line != "" && line[0] != '#' {
			if name := sampleName(line); valueFree(name) {
				if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
					line = line[:sp] + " 0\n"
				}
			}
		}
		b.WriteString(line)
	}
	return b.String()
}

func sampleName(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// contractBodies returns the masked ioserve and iorouter bodies.
func contractBodies(t *testing.T) map[string]string {
	t.Helper()
	dir, pool := e2eFixture(t)
	return map[string]string{
		"ioserve":  maskValues(ioserveContractBody(t, dir, pool)),
		"iorouter": maskValues(iorouterContractBody(t, dir)),
	}
}

// TestMetricsContractGolden pins both /metrics bodies byte for byte:
// family order, HELP texts, types, label sets and every value the fixed
// sequence produces, including the router's merged Fleet-aggregated
// section.
func TestMetricsContractGolden(t *testing.T) {
	for name, body := range contractBodies(t) {
		path := filepath.Join("testdata", "golden", name+".metrics")
		if *updateContract {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if body != string(want) {
			t.Errorf("%s /metrics drifted from %s:\n%s", name, path, firstDiff(string(want), body))
		}
	}
}

// firstDiff shows the first differing line of two bodies.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines wanted, %d got", len(w), len(g))
}

// contractLabelKeys pins each labelled family's label keys in rendered
// order (le aside). A family missing here must carry no labels; a family
// with no samples in the bodies is not checked.
var contractLabelKeys = map[string]string{
	"iorouter_membership_events_total":    "event",
	"iorouter_replica_connections_total":  "replica,reused",
	"iorouter_replica_errors_total":       "replica",
	"iorouter_replica_requests_total":     "replica",
	"iorouter_replica_rows_total":         "replica",
	"iorouter_replica_scrape_age_seconds": "replica",
	"iorouter_replica_up":                 "replica",
	"iorouter_slo_bad_total":              "class,objective",
	"iorouter_slo_budget_consumed":        "class,objective",
	"iorouter_slo_burn_rate":              "class,objective,window",
	"iorouter_slo_met":                    "class,objective",
	"iorouter_slo_requests_total":         "class,objective",
	"iorouter_traces_kept_total":          "reason",
	"ioserve_active_version":              "system",
	"ioserve_admission_shed_total":        "reason",
	"ioserve_breaker_failures_total":      "name",
	"ioserve_breaker_state":               "name",
	"ioserve_breaker_trips_total":         "name",
	"ioserve_drift_buffer_rows":           "system",
	"ioserve_drift_decisions_total":       "system,action",
	"ioserve_drift_error_mae_log":         "system",
	"ioserve_drift_feedback_rows_total":   "system",
	"ioserve_drift_ks_max":                "system",
	"ioserve_drift_noise_mae_log":         "system",
	"ioserve_drift_observed_rows_total":   "system",
	"ioserve_drift_psi_max":               "system",
	"ioserve_drift_retrains_total":        "system,outcome",
	"ioserve_drift_signals_total":         "system,kind",
	"ioserve_drift_staged_version":        "system",
	"ioserve_drift_windows_total":         "system",
	"ioserve_shadow_dropped_total":        "system,primary,target,role",
	"ioserve_shadow_errors_total":         "system,primary,target,role",
	"ioserve_shadow_latency_seconds_mean": "system,primary,target,role",
	"ioserve_shadow_mae_bytes_per_sec":    "system,primary,target,role",
	"ioserve_shadow_mae_log":              "system,primary,target,role",
	"ioserve_shadow_mirrored_total":       "system,primary,target,role",
	"ioserve_shadow_ood_agreement":        "system,primary,target,role",
	"ioserve_slo_bad_total":               "class,objective",
	"ioserve_slo_budget_consumed":         "class,objective",
	"ioserve_slo_burn_rate":               "class,objective,window",
	"ioserve_slo_met":                     "class,objective",
	"ioserve_slo_requests_total":          "class,objective",
	"ioserve_stage_latency_seconds":       "stage",
	"ioserve_system_cache_hits_total":     "system",
	"ioserve_system_cache_misses_total":   "system",
	"ioserve_system_errors_total":         "system",
	"ioserve_system_ood_flagged_total":    "system",
	"ioserve_system_predictions_total":    "system",
	"ioserve_system_requests_total":       "system",
	"ioserve_traces_kept_total":           "reason",
}

// lintExceptions lists, by rule, the families that break it today. The
// lint fails on an exception no family needs any more, so the list can
// only shrink.
var lintExceptions = map[string]map[string]bool{
	"base-unit": {"ioserve_latency_ns_total": true},
}

var (
	labelPair = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
	subUnit   = regexp.MustCompile(`_(ns|us|ms)(_|$)`)
)

// lintFamily is what the lint learns about one family from a body.
type lintFamily struct {
	help, typ    int
	kind         string
	sampled      bool
	keys         *string
	les          map[string][]string // series (labels without le) -> le values in order
	sums, counts map[string]bool
}

// lintExposition checks one body against the text-format rules the
// contract holds every family to and returns what it breaks.
func lintExposition(body string) (problems []string, used map[string]map[string]bool) {
	used = map[string]map[string]bool{}
	except := func(rule, name string) bool {
		if lintExceptions[rule][name] {
			if used[rule] == nil {
				used[rule] = map[string]bool{}
			}
			used[rule][name] = true
			return true
		}
		return false
	}
	fams := map[string]*lintFamily{}
	var order []string
	get := func(name string) *lintFamily {
		f, ok := fams[name]
		if !ok {
			f = &lintFamily{les: map[string][]string{}, sums: map[string]bool{}, counts: map[string]bool{}}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if fields := strings.SplitN(line, " ", 4); len(fields) >= 3 && fields[0] == "#" {
			f := get(fields[2])
			if f.sampled {
				problems = append(problems, fields[2]+": "+fields[1]+" after its samples")
			}
			switch fields[1] {
			case "HELP":
				f.help++
			case "TYPE":
				f.typ++
				if len(fields) == 4 {
					f.kind = fields[3]
				}
			}
			continue
		}
		name := sampleName(line)
		family, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, s); ok && fams[base] != nil && fams[base].kind == "histogram" {
				family, suffix = base, s
			}
		}
		f, ok := fams[family]
		if !ok || f.typ == 0 {
			problems = append(problems, name+": sample without a TYPE ahead of it")
			f = get(family)
		}
		f.sampled = true
		var keys []string
		series, le := "", ""
		for _, m := range labelPair.FindAllStringSubmatch(line[len(name):strings.LastIndexByte(line, ' ')], -1) {
			if m[1] == "le" {
				le = m[2]
				continue
			}
			keys = append(keys, m[1])
			series += m[0] + ","
		}
		k := strings.Join(keys, ",")
		if f.keys == nil {
			f.keys = &k
		} else if *f.keys != k {
			problems = append(problems, fmt.Sprintf("%s: label keys %q, earlier samples had %q", family, k, *f.keys))
		}
		switch suffix {
		case "_bucket":
			f.les[series] = append(f.les[series], le)
		case "_sum":
			f.sums[series] = true
		case "_count":
			f.counts[series] = true
		}
	}
	for _, name := range order {
		f := fams[name]
		if f.help != 1 || f.typ != 1 {
			problems = append(problems, fmt.Sprintf("%s: %d HELP and %d TYPE lines, want one each", name, f.help, f.typ))
		}
		if f.kind == "counter" && !strings.HasSuffix(name, "_total") && !except("total", name) {
			problems = append(problems, name+": counter without the _total suffix")
		}
		if subUnit.MatchString(name) && !except("base-unit", name) {
			problems = append(problems, name+": unit is not a base unit (seconds)")
		}
		if want := contractLabelKeys[name]; f.keys != nil && *f.keys != want {
			problems = append(problems, fmt.Sprintf("%s: label keys %q, pinned %q", name, *f.keys, want))
		}
		if f.kind != "histogram" {
			continue
		}
		for series, les := range f.les {
			if les[len(les)-1] != "+Inf" {
				problems = append(problems, fmt.Sprintf("%s{%s}: last le is %s, want +Inf", name, series, les[len(les)-1]))
			}
			prev := math.Inf(-1)
			for _, le := range les {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil || v <= prev {
					problems = append(problems, fmt.Sprintf("%s{%s}: le %q out of ascending order", name, series, le))
				}
				prev = v
			}
			if !f.sums[series] || !f.counts[series] {
				problems = append(problems, fmt.Sprintf("%s{%s}: histogram without _sum and _count", name, series))
			}
		}
	}
	return problems, used
}

// TestMetricsContractLint holds both bodies to the exposition rules.
func TestMetricsContractLint(t *testing.T) {
	used := map[string]map[string]bool{}
	bodies := contractBodies(t)
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		problems, u := lintExposition(bodies[name])
		for _, p := range problems {
			t.Errorf("%s: %s", name, p)
		}
		for rule, fams := range u {
			for f := range fams {
				if used[rule] == nil {
					used[rule] = map[string]bool{}
				}
				used[rule][f] = true
			}
		}
	}
	for rule, fams := range lintExceptions {
		for f := range fams {
			if !used[rule][f] {
				t.Errorf("lint exception %s/%s is no longer needed: delete it", rule, f)
			}
		}
	}
}

// TestExpositionLintCatches feeds the lint one body breaking every rule.
func TestExpositionLintCatches(t *testing.T) {
	body := `# HELP a_seconds Unsuffixed counter.
# TYPE a_seconds counter
a_seconds 1
# HELP a_seconds Twice.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="0.1"} 1
h_seconds_count 1
x_ms_total{system="theta"} 2
`
	problems, _ := lintExposition(body)
	got := strings.Join(problems, "\n")
	for _, want := range []string{
		"a_seconds: HELP after its samples",
		"a_seconds: 2 HELP and 1 TYPE lines",
		"a_seconds: counter without the _total suffix",
		"h_seconds{}: last le is 0.1, want +Inf",
		`h_seconds{}: le "0.1" out of ascending order`,
		"h_seconds{}: histogram without _sum and _count",
		"h_seconds: 0 HELP and 1 TYPE lines",
		"x_ms_total: sample without a TYPE ahead of it",
		"x_ms_total: unit is not a base unit",
		`x_ms_total: label keys "system", pinned ""`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q; it reported:\n%s", want, got)
		}
	}
}

// TestRemoteKeepsEscapedSystemName serves a system whose name needs label
// escaping from a Remote replica: the router's fleet view must show the
// name itself, not its escaped form.
func TestRemoteKeepsEscapedSystemName(t *testing.T) {
	dir, _ := e2eFixture(t)
	src, err := serve.LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := src.Get("theta", 1)
	if err != nil {
		t.Fatal(err)
	}
	const name = `a\b"c`
	reg := serve.NewRegistry()
	if err := reg.Add(&serve.ModelVersion{System: name, Version: 1, Columns: theta.Columns, Model: theta.Model}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{Workers: 1})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(serve.NewHandler(svc, serve.HandlerConfig{}))
	t.Cleanup(ts.Close)

	rt := newTestRouter(t, RouterConfig{}, newTestRemote(t, "r0", ts.URL, RemoteConfig{}))
	rt.ProbeOnce()
	if got := rt.View().Replicas[0].ActiveVersions; len(got) != 1 || got[name] != 1 {
		t.Fatalf("fleet view active_versions = %v, want %q at version 1", got, name)
	}
}

// TestGatedLocalExposesWhatGatedRemoteDoes: an admission gate handed to
// NewLocal reaches the router as the same ioserve_admission_* families a
// gated ioserve exports over HTTP — in the scrape, in the merged /metrics
// and in the fleet view's gate depth.
func TestGatedLocalExposesWhatGatedRemoteDoes(t *testing.T) {
	dir, _ := e2eFixture(t)
	opt := serve.Options{Workers: 1}
	newGate := func() *resilience.Gate { return resilience.NewGate(resilience.GateConfig{MaxInflight: 8}) }
	local := NewLocal("local", contractService(t, dir, opt, 1), newGate())

	svc := contractService(t, dir, opt, 1)
	set, gate := resilience.NewSet(), newGate()
	set.SetGate(gate)
	svc.Metrics().RegisterCollector(set.Collect)
	ts := httptest.NewServer(serve.NewHandler(svc, serve.HandlerConfig{Gate: gate, Resilience: set}))
	t.Cleanup(ts.Close)
	remote := newTestRemote(t, "remote", ts.URL, RemoteConfig{})

	type view struct {
		scraped, merged string
		gateInflight    int64
	}
	seen := func(p Predictor) view {
		fams, err := p.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var v view
		for _, f := range fams {
			if strings.HasPrefix(f.Name, "ioserve_admission_") {
				v.scraped += f.Name + " "
			}
		}
		rt := newTestRouter(t, RouterConfig{}, p)
		rt.ProbeOnce()
		for _, line := range strings.Split(scrapeHandler(t, NewHandler(rt, HandlerConfig{})), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE ioserve_admission_"); ok {
				v.merged += rest + " "
			}
		}
		v.gateInflight = rt.View().Replicas[0].GateInflight
		return v
	}
	l, r := seen(local), seen(remote)
	if strings.Count(r.scraped, " ") != 4 || r.merged == "" || r.gateInflight != 0 {
		t.Fatalf("gated remote exposes %+v, want the four gate families, merged counters and an idle gate", r)
	}
	if l != r {
		t.Fatalf("gated local exposes %+v, gated remote %+v", l, r)
	}
}

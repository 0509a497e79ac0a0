// Command ioload drives an ioserve instance with a synthetic serving
// workload: Poisson arrivals with configurable duplicate and OoD-injection
// rates, reporting latency percentiles and the cache/guardrail behavior the
// taxonomy predicts (duplicates hit the cache, novel jobs trip the OoD
// flag).
//
// Usage:
//
//	ioload -addr http://localhost:8080 -system theta -requests 500 -rate 200
//	ioload -system theta -dup 0.7 -batch 8          # duplicate-heavy traffic
//	ioload -system cori -ood 0.2                    # novelty-heavy traffic
//	ioload -system theta -churn-registry ./registry -churn-bumps 3
//	ioload -system theta -drift-ramp 3 -requests 2000 -rate 200
//
// The row pool is generated from the same simulated system the server was
// bootstrapped from, so feature schemas line up by construction.
//
// The target may be a single ioserve or an iorouter fleet front-end — the
// predict surface is identical. Against a router the responses carry a
// per-replica split, and the report adds a "replica rows" line showing the
// routing skew across the fleet.
//
// The version-churn scenario (-churn-registry) exercises live reload under
// traffic: while the load runs, ioload periodically copies the registry's
// highest version directory to v(N+1) on disk, forces a reload poll over
// the admin API, and reports every model version observed in responses — a
// clean run sees the version advance with zero request errors.
//
// The drift-injection scenario (-drift-ramp) exercises the closed loop end
// to end: after a warm-up, every feature is scaled along a gradual ramp (a
// temporal concept drift), ground truth is posted to /v1/feedback, and the
// run then holds drifted traffic steady until the server's drift control
// plane has detected the shift, retrained, published a new version, and
// auto-promoted it — or the -drift-wait deadline expires, in which case
// ioload exits non-zero.
//
// Transient predict failures (429 sheds, 5xx, transport errors) are
// retried with capped jittered backoff honoring Retry-After (-retries;
// retried attempts are reported apart from the error column). With
// -expect-chaos the run additionally asserts the server was pushed into
// load shedding and survived it — the contract of the chaos-smoke harness.
//
// Admin actions (forced reloads, drift controls) authenticate with
// -admin-token / $IOSERVE_ADMIN_TOKEN. A server that rejects an admin
// action mid-scenario (401/403/409) aborts the run with a non-zero exit —
// admin failures are never folded into the served-error counters.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/dataset"
	"iotaxo/internal/drift"
	"iotaxo/internal/fleet"
	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/rng"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
	"iotaxo/internal/workload"
)

// churnSpec configures the version-churn scenario; registry == "" disables.
type churnSpec struct {
	registry string
	interval time.Duration
	bumps    int
}

// driftSpec configures the drift-injection scenario; ramp <= 0 disables.
type driftSpec struct {
	ramp      float64       // final feature multiplier is 1+ramp
	rampAfter float64       // fraction of requests served before the ramp starts
	wait      time.Duration // how long to hold drifted traffic for the loop to close
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "ioserve base URL")
		sysName  = flag.String("system", "theta", "system to target: theta or cori")
		version  = flag.Int("version", 0, "model version to pin (0 = latest)")
		requests = flag.Int("requests", 200, "requests to issue")
		batch    = flag.Int("batch", 4, "rows per request")
		rate     = flag.Float64("rate", 100, "mean Poisson arrival rate, req/s (<= 0: closed loop)")
		dup      = flag.Float64("dup", 0.5, "duplicate-row probability")
		ood      = flag.Float64("ood", 0.05, "OoD-injection probability")
		conc     = flag.Int("concurrency", 8, "max in-flight requests")
		poolJobs = flag.Int("pool-jobs", 2000, "jobs generated for the row pool")
		seed     = flag.Uint64("seed", 1, "workload seed")
		token    = flag.String("admin-token", os.Getenv("IOSERVE_ADMIN_TOKEN"),
			"bearer token for admin actions (default $IOSERVE_ADMIN_TOKEN)")
		churnReg = flag.String("churn-registry", "",
			"registry directory to bump versions into while the load runs (the server must watch it with -reload-interval)")
		churnInt   = flag.Duration("churn-interval", 2*time.Second, "delay between version bumps")
		churnBumps = flag.Int("churn-bumps", 3, "number of version bumps to perform")
		driftRamp  = flag.Float64("drift-ramp", 0,
			"drift scenario: ramp every feature up to (1+ramp)x over the run (0 disables)")
		driftAfter = flag.Float64("drift-ramp-after", 0.3,
			"drift scenario: fraction of requests served before the ramp starts")
		driftWait = flag.Duration("drift-wait", 90*time.Second,
			"drift scenario: how long to hold drifted traffic waiting for retrain + auto-promote")
		retries = flag.Int("retries", 2,
			"retry a transiently failed predict (429, 5xx, transport error) up to this many times with capped jittered backoff (0 disables)")
		expectChaos = flag.Bool("expect-chaos", false,
			"assert the server was under chaos/overload: non-zero sheds on /metrics, live /healthz, and some successful requests, else exit non-zero")
		expectSLO = flag.String("expect-slo", "",
			"assert the server's /v1/slo state after the run: 'met' (every objective within budget) or 'burning' (at least one objective over budget), else exit non-zero")
	)
	flag.Parse()
	churn := churnSpec{registry: *churnReg, interval: *churnInt, bumps: *churnBumps}
	dr := driftSpec{ramp: *driftRamp, rampAfter: *driftAfter, wait: *driftWait}
	if churn.registry != "" && dr.ramp > 0 {
		fmt.Fprintln(os.Stderr, "ioload: -churn-registry and -drift-ramp are separate scenarios; pick one")
		os.Exit(2)
	}
	if *expectSLO != "" && *expectSLO != "met" && *expectSLO != "burning" {
		fmt.Fprintln(os.Stderr, "ioload: -expect-slo must be 'met' or 'burning'")
		os.Exit(2)
	}
	if err := run(*addr, *sysName, *version, *requests, *batch, *rate, *dup, *ood, *conc, *poolJobs, *seed, *token, churn, dr, *retries, *expectChaos, *expectSLO); err != nil {
		fmt.Fprintln(os.Stderr, "ioload:", err)
		os.Exit(1)
	}
}

// transport carries every request ioload makes. run makes its idle pool as
// deep as -concurrency before the first one: http.DefaultTransport keeps two
// connections a host, so at eight in flight the load generator itself
// re-dialled and the latencies it reported included handshakes.
var transport = http.DefaultTransport.(*http.Transport).Clone()

func newClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: transport, Timeout: timeout}
}

func run(addr, sysName string, version, requests, batch int, rate, dup, ood float64, conc, poolJobs int, seed uint64, token string, churn churnSpec, dr driftSpec, retries int, expectChaos bool, expectSLO string) error {
	transport.MaxIdleConnsPerHost = max(conc, 1) // the generator runs one at a time at <= 0
	transport.MaxIdleConns = max(conc, transport.MaxIdleConns)
	var cfg *system.Config
	switch sysName {
	case "theta":
		cfg = system.ThetaLike(poolJobs)
	case "cori":
		cfg = system.CoriLike(poolJobs)
	default:
		return fmt.Errorf("unknown system %q (want theta or cori)", sysName)
	}
	cfg.Seed = seed
	m, err := system.Generate(cfg)
	if err != nil {
		return err
	}
	frame, err := m.Frame()
	if err != nil {
		return err
	}
	if dr.ramp > 0 {
		return runDriftScenario(addr, sysName, token, requests, batch, rate, seed, frame, dr)
	}
	gen, err := workload.NewLoadGen(workload.LoadSpec{
		System:      sysName,
		Requests:    requests,
		BatchSize:   batch,
		Rate:        rate,
		DupRate:     dup,
		OoDRate:     ood,
		Concurrency: conc,
		Seed:        seed,
	}, frame.Rows())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ioload: %d requests x %d rows -> %s (%s, rate %.0f/s, dup %.0f%%, ood %.0f%%)\n",
		requests, batch, addr, sysName, rate, 100*dup, 100*ood)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		churnWG  sync.WaitGroup
		churnRes churnResult
	)
	if churn.registry != "" {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			churnRes = runChurn(ctx, churn, addr, sysName, token)
		}()
	}
	tracker := &versionTracker{seen: make(map[int]int)}
	timings := &serverTimingAgg{}
	rstats := &retryStats{}
	tally := &replicaTally{}
	stats, err := gen.Run(ctx, httpTarget(addr, sysName, version, tracker, timings, retries, seed, rstats, tally))
	cancel()
	churnWG.Wait()
	if err != nil {
		return err
	}
	fmt.Printf("requests        %d (%d errors)\n", stats.Requests, stats.Errors)
	if retries > 0 {
		// Retries are reported apart from errors: a retried-then-served
		// request is a success, and folding the attempts into the error
		// column would misread recovery as failure.
		fmt.Printf("retries         %d (%d requests exhausted all %d attempts)\n",
			rstats.retries.Load(), rstats.exhausted.Load(), retries+1)
	}
	fmt.Printf("rows            %d\n", stats.Rows)
	fmt.Printf("achieved rate   %.1f req/s\n", stats.AchievedRPS)
	fmt.Printf("latency p50     %v\n", stats.P50)
	fmt.Printf("latency p95     %v\n", stats.P95)
	fmt.Printf("latency p99     %v\n", stats.P99)
	if stats.Rows > 0 {
		fmt.Printf("cache hits      %d (%.1f%%)\n", stats.CacheHits, 100*float64(stats.CacheHits)/float64(stats.Rows))
		fmt.Printf("ood flagged     %d (%.1f%%)\n", stats.OoDFlagged, 100*float64(stats.OoDFlagged)/float64(stats.Rows))
	}
	timings.report()
	stats.PerReplica = tally.snapshot()
	reportReplicaSplit(stats, tally)
	fmt.Printf("versions seen   %s\n", tracker.String())
	// The churn scenario's contract is "the served version advances with
	// zero request errors" — enforce it in the exit code so scripts and CI
	// can rely on it. Admin rejections surfaced through churnRes.err are
	// scenario-fatal in their own right, never counted as served errors.
	if churn.registry != "" {
		switch {
		case churnRes.err != nil:
			return fmt.Errorf("version churn: %w", churnRes.err)
		case stats.Errors > 0:
			return fmt.Errorf("version churn caused %d request errors", stats.Errors)
		case churnRes.published == 0:
			return fmt.Errorf("version churn: the load finished before any bump was published; raise -requests or lower -churn-interval")
		case tracker.distinct() < 2:
			return fmt.Errorf("version churn: %d version(s) were published but responses never advanced past %s (is the server watching %s with -reload-interval?)",
				churnRes.published, tracker.String(), churn.registry)
		}
	}
	if expectChaos {
		if err := verifyChaos(addr, stats); err != nil {
			return err
		}
	}
	// SLO compliance summary: best-effort when the server tracks objectives
	// (-slo), enforced when the caller stated an expectation.
	return reportSLO(addr, expectSLO)
}

// reportSLO fetches the server's /v1/slo state, prints one compliance line
// per objective, and enforces the -expect-slo assertion: "met" demands
// every objective within budget, "burning" at least one over it. A server
// without SLO tracking (409/404) is fine unless an expectation was stated.
func reportSLO(addr, expect string) error {
	client := newClient(10 * time.Second)
	resp, err := client.Get(addr + "/v1/slo")
	if err != nil {
		if expect != "" {
			return fmt.Errorf("expect-slo: reading /v1/slo: %w", err)
		}
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if expect != "" {
			return fmt.Errorf("expect-slo: /v1/slo returned %d (is the server running with -slo?)", resp.StatusCode)
		}
		return nil
	}
	var body struct {
		Objectives []obs.SLOStatus `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decoding /v1/slo: %w", err)
	}
	if len(body.Objectives) == 0 {
		if expect != "" {
			return fmt.Errorf("expect-slo: /v1/slo reports no objectives")
		}
		return nil
	}
	burning := 0
	for _, o := range body.Objectives {
		observed := ""
		if o.TargetNs > 0 {
			observed = fmt.Sprintf("observed %v vs target %v",
				time.Duration(o.ObservedQuantileNs).Round(time.Microsecond),
				time.Duration(o.TargetNs).Round(time.Microsecond))
		} else {
			observed = fmt.Sprintf("observed %.3f%% vs target %.3f%%",
				100*o.ObservedAvail, 100*o.TargetAvailability)
		}
		state := "met"
		if !o.Met {
			state = "BURNING"
			burning++
		}
		fmt.Printf("slo %-24s %s: %s (%d req, %d bad, budget %.2fx, alert %s)\n",
			o.Objective, state, observed, o.Requests, o.Bad, o.BudgetConsumed, o.Alert)
	}
	switch expect {
	case "met":
		if burning > 0 {
			return fmt.Errorf("expect-slo: %d objective(s) burning beyond budget, want all met", burning)
		}
	case "burning":
		if burning == 0 {
			return fmt.Errorf("expect-slo: every objective met, want at least one burning beyond budget")
		}
	}
	return nil
}

// retryStats counts retried predict attempts apart from the error column.
type retryStats struct {
	retries   atomic.Int64 // individual retry attempts issued
	exhausted atomic.Int64 // requests that failed after every attempt
}

// replicaTally accumulates the per-replica row split that iorouter
// responses carry, keyed by the membership epoch each response was routed
// under — when the fleet changes mid-run (a join, a drain, a lease
// expiry) the split per era is meaningful where one flat table would
// smear a 2-replica era into a 3-replica one and misread the skew.
// Against a single ioserve the responses have no shares and the tally
// stays empty.
type replicaTally struct {
	mu     sync.Mutex
	rows   map[string]int            // all epochs combined
	epochs map[uint64]map[string]int // per membership epoch
}

func (t *replicaTally) record(shares []fleet.ReplicaShare, epoch uint64) {
	if len(shares) == 0 {
		return
	}
	t.mu.Lock()
	if t.rows == nil {
		t.rows = make(map[string]int)
		t.epochs = make(map[uint64]map[string]int)
	}
	byEpoch := t.epochs[epoch]
	if byEpoch == nil {
		byEpoch = make(map[string]int)
		t.epochs[epoch] = byEpoch
	}
	for _, s := range shares {
		t.rows[s.Replica] += s.Rows
		byEpoch[s.Replica] += s.Rows
	}
	t.mu.Unlock()
}

func (t *replicaTally) snapshot() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) == 0 {
		return nil
	}
	out := make(map[string]int, len(t.rows))
	for k, v := range t.rows {
		out[k] = v
	}
	return out
}

// epochSnapshot returns the per-epoch splits, sorted by epoch.
func (t *replicaTally) epochSnapshot() (epochs []uint64, splits map[uint64]map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.epochs) == 0 {
		return nil, nil
	}
	splits = make(map[uint64]map[string]int, len(t.epochs))
	for e, m := range t.epochs {
		epochs = append(epochs, e)
		cp := make(map[string]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		splits[e] = cp
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })
	return epochs, splits
}

// formatSplit renders one replica→rows map as "name N (P%), ...".
func formatSplit(split map[string]int) string {
	names := make([]string, 0, len(split))
	total := 0
	for name, rows := range split {
		names = append(names, name)
		total += rows
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for i, name := range names {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%s %d (%.1f%%)", name, split[name],
			100*float64(split[name])/float64(total))
	}
	return buf.String()
}

// reportReplicaSplit prints the routing skew when the target was a fleet
// router (no-op against a single ioserve, whose responses carry no
// split). The combined line always prints; when the run observed more
// than one membership epoch, a per-epoch breakdown follows so skew is
// judged within each membership era rather than across the churn.
func reportReplicaSplit(stats workload.LoadStats, tally *replicaTally) {
	if len(stats.PerReplica) == 0 {
		return
	}
	fmt.Printf("replica rows    %s\n", formatSplit(stats.PerReplica))
	epochs, splits := tally.epochSnapshot()
	if len(epochs) <= 1 {
		return
	}
	fmt.Printf("membership      %d epochs observed (fleet changed mid-run)\n", len(epochs))
	for _, e := range epochs {
		fmt.Printf("  epoch %-6d%s\n", e, formatSplit(splits[e]))
	}
}

// verifyChaos is the -expect-chaos post-run assertion: the server survived
// injected faults and overload (live /healthz), actually shed load
// (ioserve_admission_shed_total > 0 on /metrics), and still served some
// traffic. Any miss is a non-zero exit for the chaos-smoke harness.
func verifyChaos(addr string, stats workload.LoadStats) error {
	client := newClient(10 * time.Second)
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return fmt.Errorf("expect-chaos: server did not survive the run: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("expect-chaos: /healthz returned %d after the run", resp.StatusCode)
	}
	shed, err := sumMetric(client, addr, "ioserve_admission_shed_total")
	if err != nil {
		return fmt.Errorf("expect-chaos: %w", err)
	}
	if shed == 0 {
		return fmt.Errorf("expect-chaos: ioserve_admission_shed_total is 0 — the run never pushed the server into shedding")
	}
	if ok := stats.Requests - stats.Errors; ok <= 0 {
		return fmt.Errorf("expect-chaos: no request succeeded (%d issued, %d errors) — shedding must degrade service, not replace it", stats.Requests, stats.Errors)
	}
	fmt.Printf("chaos check     ok: server live, %.0f requests shed, %d served\n", shed, stats.Requests-stats.Errors)
	return nil
}

// sumMetric scrapes /metrics and sums every sample of the named series
// across its label sets.
func sumMetric(client *http.Client, addr, name string) (float64, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	fams, err := obs.ParsePromText(body)
	if err != nil {
		return 0, fmt.Errorf("parsing /metrics: %w", err)
	}
	var sum float64
	found := false
	for _, f := range fams {
		for _, sample := range f.Samples {
			if sample.Name == name {
				sum += sample.Value
				found = true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("metric %s not present on /metrics (server too old, or admission control off?)", name)
	}
	return sum, nil
}

// adminError marks a server-side rejection of an admin action: these abort
// the scenario with a non-zero exit rather than being folded into the
// served-error counters.
type adminError struct {
	action string
	status int
	msg    string
}

func (e *adminError) Error() string {
	hint := ""
	if e.status == http.StatusUnauthorized || e.status == http.StatusForbidden {
		hint = " (set -admin-token / $IOSERVE_ADMIN_TOKEN to match the server)"
	}
	return fmt.Sprintf("server rejected admin action %s with status %d: %s%s", e.action, e.status, e.msg, hint)
}

// adminPost performs one authenticated admin action against the server.
func adminPost(client *http.Client, addr, path, token string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, addr+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("admin action %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &adminError{action: path, status: resp.StatusCode, msg: e.Error}
	}
	return nil
}

// churnResult reports what the bump goroutine accomplished.
type churnResult struct {
	published int
	err       error
}

// runChurn performs the on-disk version bumps for the churn scenario, and
// forces a reload poll over the admin API after each bump so the swap is
// prompt and the admin surface is exercised under load.
func runChurn(ctx context.Context, churn churnSpec, addr, sysName, token string) churnResult {
	var res churnResult
	client := newClient(10 * time.Second)
	for i := 0; i < churn.bumps; i++ {
		select {
		case <-ctx.Done():
			return res
		case <-time.After(churn.interval):
		}
		v, err := serve.BumpVersion(churn.registry, sysName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioload: churn bump failed: %v\n", err)
			res.err = err
			return res
		}
		res.published++
		fmt.Fprintf(os.Stderr, "ioload: churn published %s v%d\n", sysName, v)
		if err := adminPost(client, addr, "/v1/versions/reload", token, map[string]any{}); err != nil {
			fmt.Fprintf(os.Stderr, "ioload: %v\n", err)
			res.err = err
			return res
		}
	}
	return res
}

// latencyRecorder accumulates per-request predict latencies for the drift
// scenario, whose report would otherwise carry no tail percentiles (the
// steady and churn scenarios get p50/p95/p99 from workload.LoadStats) —
// serving-path regressions show up in p95/p99 long before they move the
// mean.
type latencyRecorder struct {
	mu   sync.Mutex
	lats []time.Duration
}

func (l *latencyRecorder) record(d time.Duration) {
	l.mu.Lock()
	l.lats = append(l.lats, d)
	l.mu.Unlock()
}

// report prints p50/p95/p99 over the recorded latencies (no-op when
// nothing succeeded).
func (l *latencyRecorder) report() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lats) == 0 {
		return
	}
	sort.Slice(l.lats, func(a, b int) bool { return l.lats[a] < l.lats[b] })
	pick := func(q float64) time.Duration {
		return l.lats[int(q*float64(len(l.lats)-1))]
	}
	fmt.Printf("latency p50     %v\n", pick(0.50))
	fmt.Printf("latency p95     %v\n", pick(0.95))
	fmt.Printf("latency p99     %v\n", pick(0.99))
}

// serverTimingAgg aggregates the server-reported per-stage timings
// (PredictResponse.ServerTimings) alongside the client-observed request
// time, so the report can split end-to-end latency into where it was
// actually spent: server queue wait vs compute vs everything else (wire,
// JSON, client scheduling).
type serverTimingAgg struct {
	mu       sync.Mutex
	n        int64
	clientNs int64
	st       serve.ServerTimings // field-wise sums
}

func (a *serverTimingAgg) record(clientElapsed time.Duration, st *serve.ServerTimings) {
	if st == nil {
		return // pre-observability server: report falls back to client-only numbers
	}
	a.mu.Lock()
	a.n++
	a.clientNs += clientElapsed.Nanoseconds()
	a.st.TotalNs += st.TotalNs
	a.st.CacheLookupNs += st.CacheLookupNs
	a.st.QueueWaitNs += st.QueueWaitNs
	a.st.WaveAssembleNs += st.WaveAssembleNs
	a.st.EvaluateNs += st.EvaluateNs
	a.st.GuardNs += st.GuardNs
	a.st.FinalizeNs += st.FinalizeNs
	a.st.ObserveNs += st.ObserveNs
	a.mu.Unlock()
}

// report prints the mean stage split. Client overhead is the gap between
// what the client measured and what the server accounted for — transport,
// serialization, and client-side scheduling.
func (a *serverTimingAgg) report() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return
	}
	mean := func(sum int64) time.Duration {
		return time.Duration(sum / a.n).Round(time.Microsecond)
	}
	fmt.Printf("server mean     %v (cache lookup %v, queue wait %v, assemble %v, evaluate %v [guard %v], finalize %v, observe %v)\n",
		mean(a.st.TotalNs), mean(a.st.CacheLookupNs), mean(a.st.QueueWaitNs),
		mean(a.st.WaveAssembleNs), mean(a.st.EvaluateNs), mean(a.st.GuardNs),
		mean(a.st.FinalizeNs), mean(a.st.ObserveNs))
	fmt.Printf("client overhead %v mean (wire + JSON; client %v - server %v)\n",
		mean(a.clientNs-a.st.TotalNs), mean(a.clientNs), mean(a.st.TotalNs))
}

// versionTracker counts responses per served model version, so the churn
// scenario can show the live swap happening under traffic.
type versionTracker struct {
	mu   sync.Mutex
	seen map[int]int
}

func (t *versionTracker) record(version int) {
	t.mu.Lock()
	t.seen[version]++
	t.mu.Unlock()
}

func (t *versionTracker) distinct() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.seen)
}

func (t *versionTracker) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	versions := make([]int, 0, len(t.seen))
	for v := range t.seen {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	var buf bytes.Buffer
	for i, v := range versions {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "v%d (%d req)", v, t.seen[v])
	}
	if buf.Len() == 0 {
		return "none"
	}
	return buf.String()
}

// decodeReply reads a predict reply in the superset shape: a fleet router's
// reply is an ioserve PredictResponse plus the per-replica split and the
// membership epoch, which a plain ioserve leaves out. A plain reply goes
// through serve.DecodePredictReply's fast path; one that carries either
// field, which that path refuses, is one encoding/json pass into
// serve.ReplyJSON and the split beside it. Either way a guard the reply
// carries stays present (plain encoding/json would read an all-zero guard as
// none and its ErrorSource as "").
func decodeReply(r io.Reader) (fleet.Response, error) {
	var pr fleet.Response
	body, err := io.ReadAll(r)
	if err != nil {
		return pr, err
	}
	if !bytes.Contains(body, []byte(`"replicas"`)) && !bytes.Contains(body, []byte(`"membership_epoch"`)) {
		return pr, serve.DecodePredictReply(body, &pr.PredictResponse)
	}
	var routed struct {
		serve.ReplyJSON
		Replicas        []fleet.ReplicaShare `json:"replicas"`
		MembershipEpoch uint64               `json:"membership_epoch"`
	}
	if err := json.Unmarshal(body, &routed); err != nil {
		return pr, err
	}
	routed.Into(&pr.PredictResponse)
	pr.Replicas, pr.MembershipEpoch = routed.Replicas, routed.MembershipEpoch
	return pr, nil
}

// httpTarget adapts the /v1/predict endpoint to a load-generator target.
// Transient failures — 429 sheds, 5xx, transport errors — are retried up to
// `retries` times with capped jittered backoff, honoring the server's
// Retry-After when it names a longer wait; 4xx responses other than 429 are
// caller bugs and fail immediately.
func httpTarget(addr, sysName string, version int, tracker *versionTracker, timings *serverTimingAgg, retries int, seed uint64, rstats *retryStats, tally *replicaTally) workload.Target {
	client := newClient(30 * time.Second)
	url := addr + "/v1/predict"
	r := rng.New(seed + 777)
	var jitterMu sync.Mutex
	bo := resilience.Backoff{Base: 50 * time.Millisecond, Max: time.Second, Rand: func() float64 {
		jitterMu.Lock()
		defer jitterMu.Unlock()
		return r.Float64()
	}}

	// attempt issues one request; retryable reports whether a failure is
	// worth another attempt, retryAfter a server-suggested minimum wait.
	attempt := func(ctx context.Context, body []byte) (_ []serve.PredictionResult, retryable bool, retryAfter time.Duration, _ error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, false, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			// Transport-level failure (conn reset, refused, timeout):
			// retryable unless the caller's context is what ended it.
			return nil, ctx.Err() == nil, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
			var after time.Duration
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					after = time.Duration(secs) * time.Second
				}
			}
			return nil, retryable, after, fmt.Errorf("server returned %d: %s", resp.StatusCode, e.Error)
		}
		pr, err := decodeReply(resp.Body)
		if err != nil {
			return nil, false, 0, err
		}
		elapsed := time.Since(start)
		if tracker != nil {
			tracker.record(pr.Version)
		}
		if timings != nil {
			timings.record(elapsed, pr.ServerTimings)
		}
		if tally != nil {
			tally.record(pr.Replicas, pr.MembershipEpoch)
		}
		return pr.Predictions, false, 0, nil
	}

	return func(ctx context.Context, rows [][]float64) ([]serve.PredictionResult, error) {
		body, err := json.Marshal(serve.PredictRequest{System: sysName, Version: version, Rows: rows})
		if err != nil {
			return nil, err
		}
		for try := 0; ; try++ {
			preds, retryable, after, err := attempt(ctx, body)
			if err == nil {
				return preds, nil
			}
			if !retryable || try >= retries {
				if retryable && retries > 0 {
					rstats.exhausted.Add(1)
				}
				return nil, err
			}
			rstats.retries.Add(1)
			delay := bo.Delay(try + 1)
			if after > delay {
				delay = after
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
}

// runDriftScenario drives the detect→retrain→publish→promote loop: ramped
// feature shift with ground-truth feedback, then a hold phase until the
// server promotes a retrained version or the deadline passes.
func runDriftScenario(addr, sysName, token string, requests, batch int, rate float64, seed uint64, frame *dataset.Frame, dr driftSpec) error {
	client := newClient(30 * time.Second)
	r := rng.New(seed)
	rows := frame.Rows()
	ys := frame.Y()
	tracker := &versionTracker{seen: make(map[int]int)}
	lats := &latencyRecorder{}

	_, initialMax, err := readVersions(client, addr, sysName)
	if err != nil {
		return fmt.Errorf("drift scenario: reading initial versions: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ioload: drift scenario -> %s (%s, %d requests, ramp to %.1fx after %.0f%%, starting from v%d)\n",
		addr, sysName, requests, 1+dr.ramp, 100*dr.rampAfter, initialMax)

	// Jobs are drawn without replacement, cycling through a permutation:
	// a job drawn twice would reach the window as the same job sent again.
	// Each carries its start and app, so a retrain measures the noise floor
	// on the window instead of carrying the incumbent's.
	perm, next := r.Perm(len(rows)), 0
	// sendOne issues one predict+feedback pair at the given shift factor.
	sendOne := func(factor float64) error {
		reqRows := make([][]float64, batch)
		actual := make([]float64, batch)
		starts := make([]float64, batch)
		apps := make([]string, batch)
		for i := range reqRows {
			j := perm[next%len(perm)]
			next++
			row := append([]float64(nil), rows[j]...)
			for k := range row {
				row[k] *= factor
			}
			reqRows[i] = row
			actual[i] = ys[j]
			starts[i], apps[i] = frame.Meta(j).Start, frame.Meta(j).App
		}
		body, _ := json.Marshal(serve.PredictRequest{System: sysName, Rows: reqRows})
		predStart := time.Now()
		resp, err := client.Post(addr+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		pr, decErr := decodeReply(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict returned %d", resp.StatusCode)
		}
		lats.record(time.Since(predStart))
		if decErr == nil {
			tracker.record(pr.Version)
		}
		// Feedback is a control-plane action (it feeds retraining), so it
		// authenticates like the admin endpoints and a rejection aborts
		// the scenario instead of being counted as a served error.
		return adminPost(client, addr, "/v1/feedback",
			token, drift.FeedbackRequest{System: sysName, Rows: reqRows, Actual: actual, Start: starts, App: apps})
	}
	pace := func() {
		if rate > 0 {
			time.Sleep(time.Duration(r.Exp(rate) * float64(time.Second)))
		}
	}

	// Phase 1: warm-up + ramp.
	rampStart := int(dr.rampAfter * float64(requests))
	reqErrors := 0
	for i := 0; i < requests; i++ {
		factor := 1.0
		if i >= rampStart && requests > rampStart {
			factor = 1 + dr.ramp*float64(i-rampStart)/float64(requests-rampStart)
		}
		if err := sendOne(factor); err != nil {
			var ae *adminError
			if errors.As(err, &ae) {
				return err
			}
			reqErrors++
			if reqErrors > requests/10+10 {
				return fmt.Errorf("drift scenario: aborting after %d request errors (%v)", reqErrors, err)
			}
		}
		pace()
	}
	fmt.Fprintf(os.Stderr, "ioload: ramp done (%d requests, %d errors); holding drifted traffic for the loop to close\n",
		requests, reqErrors)

	// Phase 2: hold drifted traffic until a version newer than the initial
	// set is promoted to serving, or the deadline expires. The deadline is
	// checked every iteration — a server that stops answering the status
	// poll (or the traffic) must still end the run with a non-zero exit,
	// never hang it.
	deadline := time.Now().Add(dr.wait)
	lastPoll := time.Time{}
	lastActive := 0
	for {
		if time.Now().After(deadline) {
			fmt.Printf("versions seen   %s\n", tracker.String())
			lats.report()
			reportDriftStatus(client, addr, sysName)
			return fmt.Errorf("drift scenario: no retrained version promoted within %v (last seen serving v%d; is the server running with -drift-interval, -auto-promote, and -reload-interval?)",
				dr.wait, lastActive)
		}
		if err := sendOne(1 + dr.ramp); err != nil {
			var ae *adminError
			if errors.As(err, &ae) {
				return err
			}
			// Keep the pace even when requests fail, so a down server
			// cannot turn the hold phase into a busy-spin.
			time.Sleep(100 * time.Millisecond)
		}
		pace()
		if time.Since(lastPoll) < time.Second {
			continue
		}
		lastPoll = time.Now()
		active, _, err := readVersions(client, addr, sysName)
		if err != nil {
			continue
		}
		lastActive = active
		if active > initialMax {
			fmt.Printf("versions seen   %s\n", tracker.String())
			lats.report()
			fmt.Printf("drift loop      closed: %s v%d retrained, published, and promoted\n", sysName, active)
			reportDriftStatus(client, addr, sysName)
			return nil
		}
	}
}

// readVersions reads the system's serving default and highest registered
// version from one GET /v1/versions.
func readVersions(client *http.Client, addr, sysName string) (active, highest int, err error) {
	var listing struct {
		Systems []serve.SystemVersions `json:"systems"`
	}
	if err := getJSON(client, addr+"/v1/versions", &listing); err != nil {
		return 0, 0, err
	}
	for _, s := range listing.Systems {
		if s.System != sysName {
			continue
		}
		for _, v := range s.Versions {
			highest = max(highest, v.Version)
		}
		return s.Active, highest, nil
	}
	return 0, 0, fmt.Errorf("system %q not in /v1/versions", sysName)
}

// reportDriftStatus prints the server's drift decisions for the system.
func reportDriftStatus(client *http.Client, addr, sysName string) {
	var report drift.StatusReport
	if err := getJSON(client, addr+"/v1/drift", &report); err != nil {
		fmt.Fprintf(os.Stderr, "ioload: reading /v1/drift: %v\n", err)
		return
	}
	for _, s := range report.Systems {
		if s.System != sysName {
			continue
		}
		fmt.Printf("drift status    phase=%s psi_max=%.3f (%s) err_mae_log=%.3f windows=%d retrains=%v\n",
			s.Phase, s.PSIMax, s.PSIMaxFeature, s.ErrorMAELog, s.Windows, s.Retrains)
	}
	for _, d := range report.Decisions {
		if d.System == sysName {
			fmt.Printf("decision        %s %s v%d applied=%v: %s\n",
				d.Time.Format(time.TimeOnly), d.Action, d.Version, d.Applied, d.Reason)
		}
	}
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

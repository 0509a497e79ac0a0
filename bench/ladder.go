package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// The traced pass. One caller replays requests of the workload's own stream
// through every layer boundary in turn — the latency ladder — with a
// bench-side span around each public call. A rung's self time is its span
// minus the rung below. Every workload climbs the whole ladder, including
// rungs its measured phase never crosses, so each per-layer metric exists
// for each workload: what changes between workloads is the request shape
// and the duplicate share the rungs see.

// span is one public call of one replayed request. Parent names the rung
// whose call would have caused this one in a real request.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request"`
	StartNs int64  `json:"start_ns"` // since the traced pass began
	EndNs   int64  `json:"end_ns"`
}

const (
	warmRequests = 64
	scrapeReps   = 9
	gateReps     = 200000
)

type ladder struct {
	v        *verifier
	s        *stream
	n        int // requests per rung
	t0       time.Time
	spans    []span
	requests int   // replayed and verified so far
	err      error // the first failure; later rungs are skipped
}

// eachFn sees every reply of a replay, with the rows it answers.
type eachFn func(refs []rowRef, rep *reply)

// draw takes the next n requests off the traced lane. Every rung gets
// fresh requests: replaying the same ones would turn the second rung's
// unique rows into cache hits.
func (l *ladder) draw(n int) [][]rowRef {
	reqs := make([][]rowRef, n)
	for i := range reqs {
		reqs[i] = l.s.nextRefs(nil)
	}
	return reqs
}

// warm brings a rung to the state the measured phase runs in: the hot set
// resident, buffers grown, connections open.
func (l *ladder) warm(d doer) error {
	if err := l.s.loadHotSet(d); err != nil {
		return err
	}
	for _, refs := range l.draw(warmRequests) {
		if _, err := d.do(refs, false); err != nil {
			return err
		}
	}
	return nil
}

// rungTotal sums one rung's replay.
type rungTotal struct {
	ns   int64
	rows int
}

func (t rungTotal) perRow() float64 { return div(float64(t.ns), float64(t.rows)) }

// replay sends reqs through d one after another and verifies every decoded
// reply. With a name it records a span per request. After a failure it does
// nothing, so a climb reads straight through and checks l.err once.
func (l *ladder) replay(name, parent string, d doer, reqs [][]rowRef, each eachFn) rungTotal {
	var t rungTotal
	if l.err != nil {
		return t
	}
	for i, refs := range reqs {
		if len(refs) == 0 {
			continue
		}
		rep, err := d.do(refs, true)
		if err == nil && rep.preds != nil {
			err = l.v.check(refs, rep)
		}
		if err != nil {
			l.err = fmt.Errorf("%s request %d: %w", name, i, err)
			return t
		}
		l.requests++
		t.ns += rep.end.Sub(rep.start).Nanoseconds()
		t.rows += len(refs)
		if name != "" {
			l.spans = append(l.spans, span{
				Name: name, Parent: parent, Request: i,
				StartNs: rep.start.Sub(l.t0).Nanoseconds(), EndNs: rep.end.Sub(l.t0).Nanoseconds(),
			})
		}
		if each != nil {
			each(refs, rep)
		}
	}
	return t
}

// rung warms d, then replays a fresh draw through it.
func (l *ladder) rung(name, parent string, d doer, each eachFn) rungTotal {
	if l.err == nil {
		if err := l.warm(d); err != nil {
			l.err = fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	return l.replay(name, parent, d, l.draw(l.n), each)
}

// runLadder climbs the ladder and fills the per-layer metrics that come
// from it. It returns how many requests it verified.
func runLadder(cfg *config, p *pool, v *verifier, m map[string]float64) (requests int, err error) {
	w := cfg.workload
	l := &ladder{v: v, s: newStream(p, w.shape, cfg.seed, laneTraced), n: cfg.ladderRequests, t0: time.Now()}

	// The stacks under the rungs: one replica for the single-node rungs,
	// one more with tracing on, and three behind a router that is reached
	// both over loopback and, by a second router, in process.
	var unused setupTimes // the ladder's own set-up is not a metric
	one, err := buildStack(kindHTTP, cfg.fixtureDir, &unused)
	if err != nil {
		return 0, err
	}
	defer one.close()
	plain := one.nodes[0]
	traced, err := startNode(cfg.fixtureDir, serve.Options{CacheSize: cacheSize, TraceEvery: 1}, false, &unused)
	if err != nil {
		return 0, err
	}
	defer traced.close()
	three, err := buildStack(kindFleet, cfg.fixtureDir, &unused)
	if err != nil {
		return 0, err
	}
	defer three.close()
	local, err := newRouter(three.nodes, false)
	if err != nil {
		return 0, err
	}
	defer local.Stop()
	mv, err := plain.svc.Registry().Get(fixtureSystem, 0)
	if err != nil {
		return 0, err
	}
	single := w.shape.single
	serveHTTP := newHTTPDoer(p, single, one.url())
	defer serveHTTP.close()
	fleetHTTP := newHTTPDoer(p, single, three.url())
	defer fleetHTTP.close()

	// serve.predict first: it tells which rows of each request the cache
	// did not answer, and the model rungs replay exactly those, in the
	// same groups, so their sum is comparable with the evaluate stage.
	var stages serve.ServerTimings
	var queueWait []int64
	var misses [][]rowRef
	lone := 0
	pd := &predictDoer{svc: plain.svc, p: p}
	predict := l.rung("serve.predict", "serve.handler", pd, func(refs []rowRef, rep *reply) {
		t := rep.timings
		stages.CacheLookupNs += t.CacheLookupNs
		stages.QueueWaitNs += t.QueueWaitNs
		stages.WaveAssembleNs += t.WaveAssembleNs
		stages.EvaluateNs += t.EvaluateNs
		stages.GuardNs += t.GuardNs
		stages.FinalizeNs += t.FinalizeNs
		stages.ObserveNs += t.ObserveNs
		queueWait = append(queueWait, t.QueueWaitNs)
		var missed []rowRef
		for j, pr := range rep.preds {
			if !pr.CacheHit {
				missed = append(missed, refs[j])
			}
		}
		misses = append(misses, missed)
		if len(missed) == 1 {
			lone++
		}
	})
	flat := l.replay("gbt.flat", "serve.predict", &flatDoer{flat: mv.Flat(), p: p}, misses, nil)
	ensemble := l.replay("uq.ensemble", "serve.predict", &ensembleDoer{mv: mv, p: p}, misses, nil)
	predictTraced := l.rung("obs.predict_traced", "serve.handler", &predictDoer{svc: traced.svc, p: p}, nil)
	handler := l.rung("serve.handler", "serve.http", &handlerDoer{wire: wire{p: p, single: single}, h: plain.handler}, nil)
	overHTTP := l.rung("serve.http", "fleet.route_remote", serveHTTP, nil)
	routeLocal := l.rung("fleet.route_local", "fleet.http", &routeDoer{rt: local, p: p, single: single}, nil)
	perReplica := map[string]int{}
	shares := 0
	routeRemote := l.rung("fleet.route_remote", "fleet.http", &routeDoer{rt: three.router, p: p, single: single}, func(_ []rowRef, rep *reply) {
		shares += len(rep.shares)
		for _, sh := range rep.shares {
			perReplica[sh.Replica] += sh.Rows
		}
	})
	overFleet := l.rung("fleet.http", "", fleetHTTP, nil)

	// The workload's own rung once more with no spans recorded: what the
	// bench-side tracing itself costs.
	own, ownTraced := doer(pd), predict
	switch w.kind {
	case kindHTTP:
		own, ownTraced = serveHTTP, overHTTP
	case kindFleet:
		own, ownTraced = fleetHTTP, overFleet
	}
	untraced := l.replay("", "", own, l.draw(l.n), nil)
	if l.err != nil {
		return l.requests, l.err
	}

	scrape, err := scrapeMs(one.url())
	if err != nil {
		return 0, err
	}
	routerScrape, err := scrapeMs(three.url())
	if err != nil {
		return 0, err
	}
	failovers, err := routerFailovers(three.url())
	if err != nil {
		return 0, err
	}
	if failovers != 0 {
		return 0, fmt.Errorf("traced pass: router reports %v failovers, want 0", failovers)
	}

	rows := float64(predict.rows)
	m["gbt.flat_ns_per_row"] = flat.perRow()
	m["uq.ensemble_ns_per_row"] = ensemble.perRow()
	m["serve.predict_ns_per_row"] = predict.perRow()
	m["serve.predict_self_ns_per_row"] = div(float64(predict.ns-flat.ns-ensemble.ns), rows)
	m["serve.handler_ns_per_row"] = handler.perRow()
	m["serve.codec_self_ns_per_row"] = handler.perRow() - predict.perRow()
	m["serve.http_ns_per_row"] = overHTTP.perRow()
	m["serve.transport_self_ns_per_row"] = overHTTP.perRow() - handler.perRow()
	m["serve.stage.cache_lookup_ns_per_row"] = float64(stages.CacheLookupNs) / rows
	m["serve.stage.queue_wait_ns_per_row"] = float64(stages.QueueWaitNs) / rows
	m["serve.stage.wave_assemble_ns_per_row"] = float64(stages.WaveAssembleNs) / rows
	m["serve.stage.evaluate_ns_per_row"] = float64(stages.EvaluateNs) / rows
	m["serve.stage.guard_ns_per_row"] = float64(stages.GuardNs) / rows
	m["serve.stage.finalize_ns_per_row"] = float64(stages.FinalizeNs) / rows
	m["serve.stage.observe_ns_per_row"] = float64(stages.ObserveNs) / rows
	// guard is a slice of evaluate, so it is not subtracted twice.
	attributed := stages.CacheLookupNs + stages.QueueWaitNs + stages.WaveAssembleNs + stages.EvaluateNs + stages.FinalizeNs + stages.ObserveNs
	m["serve.stage.unattributed_ns_per_row"] = float64(predict.ns-attributed) / rows
	slices.Sort(queueWait)
	m["serve.queue_wait_p99_ms"] = float64(percentile(queueWait, 0.99)) / 1e6
	m["serve.rows_per_eval_batch"] = plain.svc.Metrics().MeanBatchSize()
	m["serve.lone_wave_share"] = float64(lone) / float64(l.n)
	m["fleet.route_local_ns_per_row"] = routeLocal.perRow()
	m["fleet.route_self_ns_per_row"] = routeLocal.perRow() - predict.perRow()
	m["fleet.route_remote_ns_per_row"] = routeRemote.perRow()
	m["fleet.hop_self_ns_per_row"] = routeRemote.perRow() - routeLocal.perRow()
	m["fleet.http_ns_per_row"] = overFleet.perRow()
	m["fleet.replicas_per_request"] = float64(shares) / float64(l.n)
	m["fleet.row_skew"] = rowSkew(perReplica)
	m["fleet.failovers"] = failovers
	m["obs.trace_overhead_ns_per_row"] = predictTraced.perRow() - predict.perRow()
	m["obs.scrape_ms"] = scrape
	m["obs.router_scrape_ms"] = routerScrape
	m["resilience.gate_ns_per_request"] = gateNs()
	m["bench.tracing_overhead"] = div(ownTraced.perRow(), untraced.perRow()) - 1
	m["ledger.evaluate_gap_share"] = div(math.Abs(float64(stages.EvaluateNs-flat.ns-ensemble.ns)), float64(stages.EvaluateNs))

	return l.requests, writeSpans(cfg, l.spans)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rowSkew is the busiest replica's rows over the idlest's; a replica that
// got none counts as one row so the ratio stays finite.
func rowSkew(perReplica map[string]int) float64 {
	lo, hi := math.MaxInt, 0
	for i := 0; i < fleetReplicas; i++ {
		n := perReplica[fmt.Sprintf("r%d", i)]
		lo, hi = min(lo, n), max(hi, n)
	}
	return float64(hi) / float64(max(lo, 1))
}

func getMetrics(baseURL string) ([]byte, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics answered %d", baseURL, resp.StatusCode)
	}
	return body, nil
}

// scrapeMs is the median time of a GET /metrics; on the router that is its
// own series plus the merged replica scrapes.
func scrapeMs(baseURL string) (float64, error) {
	ms := make([]float64, scrapeReps)
	for i := range ms {
		t0 := time.Now()
		if _, err := getMetrics(baseURL); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	_, median, _ := quartiles(ms)
	return median, nil
}

// routerFailovers reads iorouter_failovers_total off the router's /metrics.
func routerFailovers(baseURL string) (float64, error) {
	body, err := getMetrics(baseURL)
	if err != nil {
		return 0, err
	}
	const series = "iorouter_failovers_total "
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("router /metrics has no %sseries", series)
}

// gateNs times an uncontended Admit+Release pair on a default-sized gate.
func gateNs() float64 {
	g := resilience.NewGate(resilience.GateConfig{})
	t0 := time.Now()
	for i := 0; i < gateReps; i++ {
		if ok, _ := g.Admit(resilience.ClassPredict); ok {
			g.Release(0)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / gateReps
}

func writeSpans(cfg *config, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"workload": cfg.workload.name, "seed": cfg.seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, cfg.workload.name+".trace.json"), raw, 0o644)
}

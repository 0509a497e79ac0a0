package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/serve"
)

// Router is the fleet front end: it owns the membership ring, one circuit
// breaker per replica, the health/stats prober, and the dispatch path.
// Requests are split per-row by ring ownership (so a duplicate row always
// chases its cache arc), each owner group goes to its owner, sub-requests
// fan out in parallel, and failures fail over to the least-loaded untried
// replica — a request is lost only when every live replica has refused it.
type Router struct {
	logger  *slog.Logger
	res     *resilience.Set
	probeTO time.Duration

	// Membership knobs (fixed at construction).
	now        func() time.Time
	backend    func(name, baseURL string) (Predictor, error)
	breakerCfg resilience.BreakerConfig
	leaseTTL   time.Duration
	statePath  string

	mu       sync.Mutex
	ring     *Ring
	replicas map[string]*replicaState
	names    []string // sorted member names (mutates under mu as members come and go)
	// flaps is each member's involuntary-exit history (lease expiries and
	// breaker ejections inside flapWindow); it outlives the member entry so
	// a register/expire cycle accumulates toward the damping threshold, and
	// goes once every stamp in it has left the window.
	flaps map[string][]time.Time

	// epoch counts ring membership flips; responses carry it so clients
	// (cmd/ioload) can attribute per-replica skew to membership eras.
	epoch atomic.Uint64
	// memlog retains membership transitions for the fleet view and renders
	// the per-kind event counters on /metrics.
	memlog *obs.MembershipLog

	metrics routerMetrics
	// scrape caches each replica's /metrics exposition, refreshed by the
	// prober on one cadence; it feeds the failover order's gate inflight,
	// the fleet view's versions, and the merged series on the router's
	// /metrics.
	scrape *obs.FleetScrape
	// tracer retains routed-request traces (nil when tracing is off).
	tracer *obs.RouterTracer

	idBase uint64
	idSeq  atomic.Uint64

	healthEvery time.Duration
	startOnce   sync.Once
	stopOnce    sync.Once
	stopCh      chan struct{}
	doneCh      chan struct{}
}

// replicaState is the router's per-replica bookkeeping.
type replicaState struct {
	backend Predictor
	breaker *resilience.Breaker
	// inflight counts rows dispatched by this router and not yet answered
	// (the router-side component of load).
	inflight atomic.Int64
	// gateInflight is the replica's last polled admission-gate inflight
	// (-1 when unknown or ungated).
	gateInflight atomic.Int64

	// Dispatch counters, rendered per member on /metrics.
	requests atomic.Uint64 // sub-requests dispatched (failover retries included)
	rows     atomic.Uint64 // rows dispatched
	errors   atomic.Uint64 // sub-request failures (any kind)

	mu       sync.Mutex
	versions map[string]int // last polled active versions

	// Membership fields, guarded by the router's mu (not rs.mu: state
	// transitions are decided against ring and flap state).
	state        string            // Member* lifecycle state
	lease        *resilience.Lease // nil for boot members (never expires)
	baseURL      string            // registered members' advertised URL ("" for boot ones)
	capabilities map[string]string // replica-announced metadata
	registeredAt time.Time
	dampedUntil  time.Time // earliest readmission while damped
	ejected      bool      // currently off-ring due to its breaker
}

// load orders the failover candidates: router-tracked inflight rows plus
// the replica's own gate inflight when known.
func (rs *replicaState) load() int64 {
	l := rs.inflight.Load()
	if g := rs.gateInflight.Load(); g > 0 {
		l += g
	}
	return l
}

// RouterConfig tunes a Router.
type RouterConfig struct {
	// HealthInterval paces the health/stats prober (default 1s).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health or stats probe (default 2s).
	ProbeTimeout time.Duration
	// BreakerThreshold / BreakerCooldown configure the per-replica circuit
	// breakers (defaults per resilience.BreakerConfig: 3 failures, 30s).
	// Fleet tests use a short cooldown so recovery is observable.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// TraceEvery enables router tracing: 1-in-N head sampling of routed
	// requests on top of the always-keep tail policy (errors, slow). <= 0
	// disables router tracing (and with it GET /v1/trace stitching).
	TraceEvery int
	// TraceBuffer is the retained router-trace ring capacity (default 256).
	TraceBuffer int
	// Logger defaults to a discard logger.
	Logger *slog.Logger

	// Now is the router's clock, injectable so lease-expiry and
	// flap-damping paths are testable without sleeping. Nil uses time.Now.
	Now func() time.Time
	// Backend constructs the Predictor for a dynamically registered member
	// from its advertised base URL (cmd/iorouter wires NewRemote; tests
	// resolve names to in-process Locals). Nil rejects dynamic
	// registration.
	Backend func(name, baseURL string) (Predictor, error)
	// LeaseTTL is the heartbeat lease granted to dynamic members (default
	// 3s). A member that misses every beat for a full TTL is ejected.
	LeaseTTL time.Duration
	// StatePath, when set, persists membership snapshots (temp-file +
	// rename) on every membership change, and NewRouter restores the one it
	// finds there, so a restarted router rebuilds its ring without operator
	// input.
	StatePath string
}

// NewRouter builds a router over the given boot replicas — possibly none:
// a zero-member router boots with an empty ring and fills it from
// registrations (POST /v1/fleet/register). Replica names must be unique.
// Every member is one record from newMemberLocked; a boot member differs
// only in starting active (the operator configured it; membership then
// follows breaker state), with no lease, on the epoch-0 ring. Registered
// members are quarantined behind a first successful health probe and must
// heartbeat to stay. With StatePath set, the snapshot there is restored
// too (see restore).
func NewRouter(cfg RouterConfig, replicas ...Predictor) (*Router, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	rt := &Router{
		logger:  logger,
		res:     resilience.NewSet(),
		probeTO: cfg.ProbeTimeout,
		now:     cfg.Now,
		backend: cfg.Backend,
		breakerCfg: resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		},
		leaseTTL:    cfg.LeaseTTL,
		statePath:   cfg.StatePath,
		ring:        NewRing(),
		replicas:    make(map[string]*replicaState, len(replicas)),
		flaps:       make(map[string][]time.Time),
		memlog:      obs.NewMembershipLog(membershipEvents),
		idBase:      uint64(time.Now().UnixNano()) << 8,
		healthEvery: cfg.HealthInterval,
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	rt.memlog.Now = cfg.Now
	// Nothing else sees rt yet, so the *Locked helpers run without rt.mu.
	for _, rep := range replicas {
		name := rep.Name()
		if name == "" {
			return nil, fmt.Errorf("fleet: replica with empty name")
		}
		if _, dup := rt.replicas[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", name)
		}
		rs := rt.newMemberLocked(name, rep, "", nil)
		rs.state, rs.lease = MemberActive, nil
		rt.ring.Add(name) // no flip: boot members are epoch 0
	}
	rt.scrape = obs.NewFleetScrape(rt.names)
	rt.scrape.Now = cfg.Now
	if cfg.TraceEvery > 0 {
		rt.tracer = obs.NewRouterTracer(obs.Config{
			SampleEvery: cfg.TraceEvery,
			RingSize:    cfg.TraceBuffer,
		})
	}
	if rt.statePath != "" {
		rt.restore()
	}
	return rt, nil
}

// Start launches the health/stats prober. Stop with Stop.
func (rt *Router) Start() {
	rt.startOnce.Do(func() { go rt.probeLoop() })
}

// Stop halts the prober, waits for it to exit and closes the members' idle
// replica connections. Safe on a router that was never started (tests drive
// ProbeOnce by hand).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	// If Start never ran, claim the once ourselves and mark the loop done.
	rt.startOnce.Do(func() { close(rt.doneCh) })
	<-rt.doneCh
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rs := range rt.replicas {
		closeIdle(rs.backend)
	}
}

// closeIdle closes p's idle connections if it has the method for it, as
// http.Client asks its transport (Remote has, Local keeps none).
func closeIdle(p Predictor) {
	if c, ok := p.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// probeLoop health-checks every replica each interval, feeds the
// breakers, refreshes stats, and reconciles ring membership.
func (rt *Router) probeLoop() {
	defer close(rt.doneCh)
	ticker := time.NewTicker(rt.healthEvery)
	defer ticker.Stop()
	// Probe immediately at start so a fleet that boots with a dead replica
	// ejects it before the first tick.
	rt.ProbeOnce()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-ticker.C:
			rt.ProbeOnce()
		}
	}
}

// ProbeOnce runs one health/stats sweep over all members, expires lapsed
// leases, and reconciles ring membership. Exported so tests (and the
// fleet smoke script via the router's admin surface) can force a sweep
// instead of sleeping.
func (rt *Router) ProbeOnce() {
	// Snapshot the member set under the lock: registrations and removals
	// race this sweep, and a member removed mid-probe is caught by the
	// identity check in noteHealthy.
	rt.mu.Lock()
	type probe struct {
		name string
		rs   *replicaState
	}
	members := make([]probe, 0, len(rt.names))
	for _, name := range rt.names {
		members = append(members, probe{name, rt.replicas[name]})
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range members {
		name, rs := m.name, m.rs
		// Allow is the breaker's half-open gate: an open breaker absorbs
		// probes until its cooldown elapses, then admits exactly one.
		if !rs.breaker.Allow() {
			continue
		}
		wg.Add(1)
		go func(name string, rs *replicaState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.probeTO)
			defer cancel()
			if err := rs.backend.Health(ctx); err != nil {
				rs.breaker.Failure()
				rt.scrape.MarkDown(name)
				rt.logger.Warn("fleet health probe failed", "replica", name, "err", err)
				return
			}
			rs.breaker.Success()
			rt.noteHealthy(name, rs)
			// One metrics scrape replaces the old two-request
			// /v1/resilience + /v1/versions stats poll: its families feed
			// the failover order's gate inflight, the fleet view's active
			// versions, and (cached) the merged series on /metrics.
			fams, err := rs.backend.Metrics(ctx)
			if err != nil {
				// Health passed; a scrape hiccup costs freshness, not
				// membership. The up gauge drops, the last-good cache stays.
				rt.scrape.MarkDown(name)
				rt.logger.Warn("fleet metrics scrape failed", "replica", name, "err", err)
				return
			}
			rt.scrape.Record(name, fams)
			gate, versions := int64(-1), make(map[string]int)
			for _, f := range fams {
				for _, s := range f.Samples {
					switch f.Name {
					case "ioserve_admission_inflight":
						gate = int64(s.Value)
					case "ioserve_active_version":
						if sys, ok := obs.LabelValue(s.Labels, "system"); ok {
							versions[sys] = int(s.Value)
						}
					}
				}
			}
			rs.gateInflight.Store(gate)
			rs.mu.Lock()
			rs.versions = versions
			rs.mu.Unlock()
		}(name, rs)
	}
	wg.Wait()
	rt.expireLeases()
	rt.reconcile()
}

// reconcile syncs ring membership with lifecycle + breaker state: a
// member is on the ring iff it is active and its breaker is closed. Each
// membership flip is one minimal remap (only the flipped member's arcs
// move). A breaker ejection counts as a flap; a member whose breaker
// recovers while its flap count is over the threshold is damped instead
// of readmitted — hysteresis that keeps a cycling member from thrashing
// the ring.
func (rt *Router) reconcile() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, name := range rt.names {
		rs := rt.replicas[name]
		closed := rs.breaker.Status().State == resilience.StateClosed
		wantRing := closed && rs.state == MemberActive
		switch {
		case wantRing && !rt.ring.Has(name):
			if rs.ejected && rt.flapCountLocked(name) >= flapThreshold {
				rs.state = MemberDamped
				rs.dampedUntil = rt.now().Add(dampHold)
				rs.ejected = false
				rt.memlog.Record(name, obs.MemberEventFlapDamped,
					fmt.Sprintf("%d involuntary exits within %s", rt.flapCountLocked(name), flapWindow))
				rt.logger.Warn("fleet member damped", "replica", name, "hold", dampHold)
				continue
			}
			rt.ringAddLocked(name)
			if rs.ejected {
				rs.ejected = false
				rt.memlog.Record(name, obs.MemberEventReadmit, "breaker closed")
			}
			rt.logger.Info("fleet replica joined ring", "replica", name, "ring", rt.ring.String())
		case !wantRing && rt.ring.Has(name):
			rt.ringRemoveLocked(name)
			if !closed {
				rs.ejected = true
				rt.recordFlapLocked(name)
				rt.memlog.Record(name, obs.MemberEventEject, "breaker open")
			}
			rt.logger.Warn("fleet replica ejected from ring", "replica", name, "ring", rt.ring.String())
		}
	}
}

// ReplicaShare is one replica's slice of a routed response.
type ReplicaShare struct {
	Replica string `json:"replica"`
	Rows    int    `json:"rows"`
	Version int    `json:"version"`
	// TraceIDs are the replica-side trace IDs this replica retained for
	// its shares of the request (one per owner group it served, when its
	// tail-sampling kept them). They parent back to the response's fleet
	// TraceID, and GET /v1/trace/{fleet-id} on the router splices the
	// matching replica span trees into one stitched tree.
	TraceIDs []string `json:"trace_ids,omitempty"`
}

// Response is the router's POST /v1/predict reply: the replica contract
// plus the per-replica split, so clients (cmd/ioload) can report routing
// skew without scraping metrics.
type Response struct {
	serve.PredictResponse
	Replicas []ReplicaShare `json:"replicas,omitempty"`
	// MembershipEpoch is the ring-membership era the request was routed
	// under (bumped on every membership flip), so load clients can report
	// per-replica skew per era instead of smearing rows across joins and
	// drains.
	MembershipEpoch uint64 `json:"membership_epoch,omitempty"`
}

// traceID mints one fleet-level trace ID per routed request.
func (rt *Router) traceID() uint64 {
	return rt.idBase + rt.idSeq.Add(1)
}

// ownerGroup is one ring-owner's slice of a batch.
type ownerGroup struct {
	owner   string // ring owner of these rows' hashes
	indices []int  // positions in the original row order, ascending
	rows    [][]float64
}

// groupResult is which replica served one owner group, or why none did.
type groupResult struct {
	replica string
	err     error
}

// routeScratch is the pooled working storage of one Route: what the split,
// the fan-out and the reassembly need and the response does not keep. A
// sub-request, its row headers and its reply are on loan to
// Predictor.Predict until it returns, so the scratch is released only after
// the fan-out barrier.
type routeScratch struct {
	hashes  []uint64    // row i's routing hash
	label   []int32     // row i's group
	groupOf []int32     // position in Ring.Members → group, -1 until seen
	counts  []int       // rows per group
	indices []int       // every group's indices, back to back
	rows    [][]float64 // every group's row headers, likewise
	groups  []ownerGroup
	subs    []serve.PredictRequest
	replies []serve.PredictResponse // group g's reply, decoded or served into its reused blocks
	results []groupResult
	fid     uint64 // the request's fleet trace ID, every sub-request's trace parent
	wg      sync.WaitGroup
}

// maxScratchRows is the most rows a scratch's row headers, or its reply
// blocks together, or a routed reply, may hold and go back to the pool: one
// 100k-row batch must not pin its blocks per P.
const maxScratchRows = 4096

var scratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// release drops every reference into the request, then returns the scratch
// to the pool. The replies keep their blocks: every Predict overwrites its
// reply whole.
func (sc *routeScratch) release() {
	replyRows := 0
	for _, r := range sc.replies[:cap(sc.replies)] {
		replyRows += cap(r.Predictions)
	}
	if cap(sc.rows) > maxScratchRows || replyRows > maxScratchRows {
		return
	}
	clear(sc.rows)
	clear(sc.groups)
	clear(sc.subs)
	clear(sc.results)
	scratchPool.Put(sc)
}

// sized returns s with length n, reallocating only when it is too small.
// The contents are whatever was there: callers overwrite all of it.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// hopRecorder collects one HopSpan per replica dispatch attempt. The
// dispatch goroutines append concurrently; Route reads the slice only
// after the fan-out barrier.
type hopRecorder struct {
	mu   sync.Mutex
	hops []obs.HopSpan
}

// add records one dispatch attempt. Nil receiver (router tracing off)
// no-ops so the dispatch path threads it unconditionally.
func (h *hopRecorder) add(hop obs.HopSpan) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.hops = append(h.hops, hop)
	h.mu.Unlock()
}

// Route serves one predict request across the fleet. The error, when
// non-nil, is a *BackendError carrying the HTTP status the handler must
// answer with (transport-level detail is folded into 503s).
func (rt *Router) Route(ctx context.Context, req *serve.PredictRequest) (*Response, error) {
	out := new(Response)
	if err := rt.route(ctx, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// route is Route building the reply in out, whose Predictions and Replicas
// blocks it reuses; out is the reply only when route returns nil.
func (rt *Router) route(ctx context.Context, req *serve.PredictRequest, out *Response) error {
	start := time.Now()
	rt.metrics.requests.Add(1)
	if req.System == "" {
		return &BackendError{Status: http.StatusBadRequest, Msg: "missing \"system\""}
	}
	rows := req.Rows
	if req.Row != nil {
		if rows != nil {
			return &BackendError{Status: http.StatusBadRequest, Msg: "set \"row\" or \"rows\", not both"}
		}
		rows = [][]float64{req.Row}
	}
	if len(rows) == 0 {
		return &BackendError{Status: http.StatusBadRequest, Msg: "no rows to predict"}
	}
	sc := scratchPool.Get().(*routeScratch)
	defer sc.release()
	sc.fid = rt.traceID()

	// The router-side trace (nil when tracing is off): validation above is
	// the admit stage, then score / fanout / reassemble are stamped as the
	// request flows. Hops accumulate through rec from the dispatch path.
	var ft *obs.FleetTrace
	var rec *hopRecorder
	if rt.tracer != nil {
		ft = &obs.FleetTrace{ID: sc.fid, System: req.System, Start: start, Rows: len(rows)}
		ft.StageNs[obs.RouterStageAdmit] = time.Since(start).Nanoseconds()
		rec = &hopRecorder{}
	}
	finish := func(err error) {
		if ft == nil {
			return
		}
		ft.TotalNs = time.Since(start).Nanoseconds()
		ft.Hops = rec.hops // fan-out barrier already passed: no concurrent writers
		if err != nil {
			ft.Err = err.Error()
		}
		rt.tracer.Finish(ft)
	}

	scoreStart := time.Now()
	groups, epoch, err := rt.groupByOwner(sc, req.System, rows)
	if ft != nil {
		ft.StageNs[obs.RouterStageScore] = time.Since(scoreStart).Nanoseconds()
	}
	if err != nil {
		finish(err)
		return err
	}

	// Every group but the last gets a goroutine; the last runs here, so a
	// request that lands on one replica forks nothing.
	fanoutStart := time.Now()
	sc.subs, sc.results = sized(sc.subs, len(groups)), sized(sc.results, len(groups))
	sc.replies = sized(sc.replies, len(groups))
	last := len(groups) - 1
	sc.wg.Add(last)
	for gi := range groups[:last] {
		go func() {
			defer sc.wg.Done()
			rt.dispatchGroup(ctx, req, sc, gi, rec)
		}()
	}
	rt.dispatchGroup(ctx, req, sc, last, rec)
	sc.wg.Wait()
	if ft != nil {
		ft.StageNs[obs.RouterStageFanout] = time.Since(fanoutStart).Nanoseconds()
	}

	reassembleStart := time.Now()
	// Every row is one group's, so every prediction is set below.
	out.PredictResponse = serve.PredictResponse{
		System:      req.System,
		Count:       len(rows),
		Predictions: sized(out.Predictions, len(rows)),
		TraceID:     obs.FormatTraceID(sc.fid),
	}
	out.Replicas, out.MembershipEpoch = slices.Grow(out.Replicas[:0], len(groups)), epoch
	for gi, res := range sc.results {
		if res.err != nil {
			// One failed owner group fails the request: partial batches are
			// not part of the predict contract. The first error (by group
			// order, deterministic) wins; sheds keep their Retry-After.
			rt.metrics.errors.Add(1)
			finish(res.err)
			return res.err
		}
		g, reply := groups[gi], &sc.replies[gi]
		if len(reply.Predictions) != len(g.rows) {
			rt.metrics.errors.Add(1)
			err := &BackendError{Status: http.StatusBadGateway,
				Msg: fmt.Sprintf("replica %s answered %d predictions for %d rows", res.replica, len(reply.Predictions), len(g.rows))}
			finish(err)
			return err
		}
		for i, idx := range g.indices {
			out.Predictions[idx] = reply.Predictions[i]
		}
		if reply.Version > out.Version {
			out.Version = reply.Version
		}
		// A failover can land two groups on one replica: they share a share.
		k := 0
		for k < len(out.Replicas) && out.Replicas[k].Replica != res.replica {
			k++
		}
		if k == len(out.Replicas) {
			out.Replicas = append(out.Replicas, ReplicaShare{Replica: res.replica, Version: reply.Version})
		}
		sh := &out.Replicas[k]
		sh.Rows += len(g.rows)
		if reply.Version > sh.Version {
			sh.Version = reply.Version
		}
		if reply.TraceID != "" {
			sh.TraceIDs = append(sh.TraceIDs, reply.TraceID)
		}
	}
	slices.SortFunc(out.Replicas, func(a, b ReplicaShare) int { return strings.Compare(a.Replica, b.Replica) })
	if ft != nil {
		ft.StageNs[obs.RouterStageReassemble] = time.Since(reassembleStart).Nanoseconds()
	}
	finish(nil)
	return nil
}

// groupByOwner splits rows into ring-owner groups, in order of first
// appearance with each group's indices ascending, and stamps the membership
// epoch the split was computed under. Routing hashes pin version 0 so a row
// keeps its owner across model version bumps — cache keys are versioned, but
// arc residency shouldn't churn on every publish. The rows are hashed before
// rt.mu is taken and laid out after it is dropped: under the lock, which
// every routed request crosses, a row costs one ring search.
func (rt *Router) groupByOwner(sc *routeScratch, system string, rows [][]float64) ([]ownerGroup, uint64, error) {
	n := len(rows)
	sc.hashes, sc.label = sized(sc.hashes, n), sized(sc.label, n)
	for i, row := range rows {
		sc.hashes[i] = serve.HashKey(system, 0, row)
	}

	rt.mu.Lock()
	epoch := rt.epoch.Load()
	members := rt.ring.Members()
	if len(members) == 0 {
		rt.mu.Unlock()
		rt.metrics.errors.Add(1)
		return nil, epoch, &BackendError{Status: http.StatusServiceUnavailable, Msg: "no healthy replicas"}
	}
	sc.groupOf, sc.counts = sized(sc.groupOf, len(members)), sized(sc.counts, len(members))[:0]
	for m := range sc.groupOf {
		sc.groupOf[m] = -1
	}
	groups := sc.groups[:0]
	for i, h := range sc.hashes {
		owner := rt.ring.Owner(h)
		m, _ := rt.ring.index(owner)
		if sc.groupOf[m] < 0 {
			sc.groupOf[m] = int32(len(groups))
			groups = append(groups, ownerGroup{owner: owner})
			sc.counts = append(sc.counts, 0)
		}
		sc.label[i] = sc.groupOf[m]
		sc.counts[sc.label[i]]++
	}
	rt.mu.Unlock()

	// Each group gets its window of the two blocks, capped so that filling
	// one cannot run into the next.
	sc.indices, sc.rows = sized(sc.indices, n), sized(sc.rows, n)
	at := 0
	for g, c := range sc.counts {
		groups[g].indices, groups[g].rows = sc.indices[at:at:at+c], sc.rows[at:at:at+c]
		at += c
	}
	for i, row := range rows {
		g := &groups[sc.label[i]]
		g.indices, g.rows = append(g.indices, i), append(g.rows, row)
	}
	sc.groups = groups
	return groups, epoch, nil
}

// dispatchGroup sends owner group gi of req on its way, under the request's
// fleet trace ID, and files what came back in the scratch.
func (rt *Router) dispatchGroup(ctx context.Context, req *serve.PredictRequest, sc *routeScratch, gi int, rec *hopRecorder) {
	sub := &sc.subs[gi]
	*sub = serve.PredictRequest{System: req.System, Version: req.Version, Rows: sc.groups[gi].rows, TraceParent: sc.fid}
	name, err := rt.dispatch(ctx, sc.groups[gi].owner, sub, &sc.replies[gi], rec)
	sc.results[gi] = groupResult{replica: name, err: err}
}

// dispatch serves one owner group into out: try the owner, and on replica
// fault fail over to the least-loaded untried member until the candidates
// are exhausted. Client errors and sheds are returned as-is
// (they would fail identically anywhere); only faults burn a candidate.
// Each attempt lands one HopSpan on rec (nil-safe) with the wall time the
// router spent waiting on the replica, so the stitcher can attribute the
// difference from the replica's own total to the network.
func (rt *Router) dispatch(ctx context.Context, owner string, sub *serve.PredictRequest, out *serve.PredictResponse, rec *hopRecorder) (string, error) {
	var tried map[string]bool // replicas that faulted: built by the first failover
	failover := false
	var lastErr error
	for {
		name, rs := rt.pick(owner, tried)
		if rs == nil {
			if lastErr == nil {
				lastErr = &BackendError{Status: http.StatusServiceUnavailable, Msg: "no healthy replicas"}
			}
			return "", lastErr
		}
		nrows := int64(len(sub.Rows))
		rs.inflight.Add(nrows)
		rs.requests.Add(1)
		rs.rows.Add(uint64(nrows))
		hopStart := time.Now()
		err := rs.backend.Predict(ctx, sub, out)
		hop := obs.HopSpan{
			Replica:    name,
			Rows:       len(sub.Rows),
			DurationNs: time.Since(hopStart).Nanoseconds(),
			Failover:   failover,
		}
		rs.inflight.Add(-nrows)
		if err == nil {
			// A replica that kept no trace sends no ID, and parsing ""
			// would allocate the error that says so.
			if out.TraceID != "" {
				if id, perr := obs.ParseTraceID(out.TraceID); perr == nil {
					hop.TraceID = id
				}
			}
			if out.ServerTimings != nil {
				hop.ReplicaTotalNs = out.ServerTimings.TotalNs
			}
			rec.add(hop)
			rs.breaker.Success()
			return name, nil
		}
		hop.Err = err.Error()
		rec.add(hop)
		rs.errors.Add(1)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The client's budget ran out, either before dispatch (fail-fast
			// in Remote.Predict) or mid-flight, or the client went away. That
			// is the client's clock or choice, not a replica fault: no breaker
			// penalty, no failover (a retry elsewhere starts with even less
			// budget).
			return "", &BackendError{Status: http.StatusGatewayTimeout,
				Msg: fmt.Sprintf("request deadline exhausted at replica %s: %v", name, err)}
		}
		if be, ok := err.(*BackendError); ok && !be.Fault() {
			// 429 (replica protecting itself) and 4xx (the request is the
			// problem): failing over would just repeat the answer. Hand the
			// status straight back; the breaker stays untouched.
			return "", be
		}
		// Replica fault (5xx or transport): feed the breaker, eject if it
		// trips, and fail the sub-request over to the next candidate.
		failover = true
		if tried == nil {
			tried = make(map[string]bool)
		}
		tried[name] = true
		rs.breaker.Failure()
		rt.reconcile()
		rt.metrics.failovers.Add(1)
		rt.logger.Warn("fleet sub-request failed over", "replica", name, "err", err)
		if be, ok := err.(*BackendError); ok {
			lastErr = be
		} else {
			lastErr = &BackendError{Status: http.StatusServiceUnavailable, Msg: err.Error()}
		}
	}
}

// Tracer exposes the router-side trace ring (nil when tracing is off).
func (rt *Router) Tracer() *obs.RouterTracer { return rt.tracer }

// StitchTrace resolves one retained fleet trace into the stitched
// cross-process tree: the router's own span skeleton with each hop's
// replica span tree (fetched live over the replica's admin surface)
// spliced under its fan-out span. A hop whose replica no longer holds the
// trace degrades to an explicit missing marker rather than failing the
// stitch. The bool is false when the router never kept (or has evicted)
// the trace.
func (rt *Router) StitchTrace(ctx context.Context, id uint64) (obs.StitchedTrace, bool) {
	if rt.tracer == nil {
		return obs.StitchedTrace{}, false
	}
	ft, ok := rt.tracer.Get(id)
	if !ok {
		return obs.StitchedTrace{}, false
	}
	st := ft.Stitch(func(replica string, traceID uint64) (*obs.TraceDetail, bool) {
		rt.mu.Lock()
		rs, ok := rt.replicas[replica]
		rt.mu.Unlock()
		if !ok {
			return nil, false
		}
		fctx, cancel := context.WithTimeout(ctx, rt.probeTO)
		defer cancel()
		detail, err := rs.backend.FetchTrace(fctx, traceID)
		if err != nil {
			if !errors.Is(err, ErrTraceNotFound) {
				rt.logger.Warn("fleet trace fetch failed", "replica", replica, "err", err)
			}
			return nil, false
		}
		return detail, true
	})
	return st, true
}

// pick returns the untried ring member a group goes to under pickReplica
// (nil when exhausted). Failover sees the live loads, so two groups whose
// owners faulted spread over the survivors instead of dogpiling.
func (rt *Router) pick(owner string, tried map[string]bool) (string, *replicaState) {
	var few [8]candidate // a fleet this small is picked from on the stack
	cands := few[:0]
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, name := range rt.ring.Members() {
		if tried[name] {
			continue
		}
		cands = append(cands, candidate{name: name, load: rt.replicas[name].load()})
	}
	i := pickReplica(cands, owner)
	if i < 0 {
		return "", nil
	}
	return cands[i].name, rt.replicas[cands[i].name]
}

// ReplicaView is one replica's slice of the GET /v1/fleet view.
type ReplicaView struct {
	Name           string         `json:"name"`
	State          string         `json:"state"`
	Breaker        string         `json:"breaker"`
	InRing         bool           `json:"in_ring"`
	RouterInflight int64          `json:"router_inflight"`
	GateInflight   int64          `json:"gate_inflight"`
	ActiveVersions map[string]int `json:"active_versions,omitempty"`
	// Leased is false for boot (operator-configured) members, which
	// never expire; LeaseRemainingMs is the time left before a registered
	// member would be ejected for silence.
	Leased           bool              `json:"leased"`
	LeaseRemainingMs int64             `json:"lease_remaining_ms,omitempty"`
	Flaps            int               `json:"flaps,omitempty"`
	BaseURL          string            `json:"base_url,omitempty"`
	Capabilities     map[string]string `json:"capabilities,omitempty"`
}

// FleetView is the GET /v1/fleet body.
type FleetView struct {
	Healthy  int                   `json:"healthy"`
	Epoch    uint64                `json:"epoch"`
	Replicas []ReplicaView         `json:"replicas"`
	Events   []obs.MembershipEvent `json:"events,omitempty"`
}

// viewEvents caps the membership events embedded in the fleet view.
const viewEvents = 32

// View snapshots fleet membership and per-replica state.
func (rt *Router) View() FleetView {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	v := FleetView{Healthy: rt.ring.Size(), Epoch: rt.epoch.Load()}
	for _, name := range rt.names {
		rs := rt.replicas[name]
		rs.mu.Lock()
		versions := make(map[string]int, len(rs.versions))
		for k, val := range rs.versions {
			versions[k] = val
		}
		rs.mu.Unlock()
		rv := ReplicaView{
			Name:           name,
			State:          rs.state,
			Breaker:        rs.breaker.Status().State,
			InRing:         rt.ring.Has(name),
			RouterInflight: rs.inflight.Load(),
			GateInflight:   rs.gateInflight.Load(),
			ActiveVersions: versions,
			Flaps:          rt.flapCountLocked(name),
			BaseURL:        rs.baseURL,
			Capabilities:   rs.capabilities,
			Leased:         rs.lease != nil,
		}
		if rem := rs.lease.Remaining(); rem > 0 {
			rv.LeaseRemainingMs = rem.Milliseconds()
		}
		v.Replicas = append(v.Replicas, rv)
	}
	v.Events = rt.memlog.Recent(viewEvents)
	return v
}

// Epoch returns the current membership epoch.
func (rt *Router) Epoch() uint64 { return rt.epoch.Load() }

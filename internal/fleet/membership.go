package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
)

// Dynamic membership: replicas register themselves, keep a heartbeat
// lease, and leave either gracefully (coordinated drain) or by lease
// expiry. The state machine per member:
//
//	register ──> joining ──(first healthy probe)──> active <──> ejected
//	                │                                  │       (breaker)
//	                │ (recent flaps ≥ threshold)       │
//	                └──────────> damped ──(hold elapsed + healthy probe)──> active
//
//	active/joining/damped ──(lease expiry)──────> removed   [flap recorded]
//	any ──(deregister)──> draining ──(inflight drains)──> removed
//
// Boot members (-replicas) are the same record with a nil lease — they
// never expire — and start active on the epoch-0 ring, trusting the
// operator; registered and snapshot-restored members are quarantined as
// "joining" until the first successful health probe, so a stale snapshot
// entry or a premature registration never takes ring arcs it cannot serve.

// Flap damping: a member with flapThreshold involuntary exits (lease expiry,
// breaker ejection) inside flapWindow is damped — held off the ring for
// dampHold and readmitted only by a healthy probe after the hold — so a
// partitioning network cannot thrash the ring.
const (
	flapWindow    = time.Minute
	flapThreshold = 3
	dampHold      = 10 * time.Second
	// drainWait bounds how long Deregister waits for a draining member's
	// in-flight rows when the caller brought no deadline.
	drainWait = 10 * time.Second
	// membershipEvents is the retained membership-event ring capacity.
	membershipEvents = 64
)

// Member lifecycle states, as shown in the fleet view.
const (
	MemberJoining  = "joining"  // registered, awaiting first successful health probe
	MemberActive   = "active"   // proven; on the ring iff its breaker is closed
	MemberDamped   = "damped"   // flapping; held off the ring until the hold elapses
	MemberDraining = "draining" // deregistering; off the ring, old rows finishing
)

// ErrUnknownMember is returned by Heartbeat/Deregister for a name the
// router does not track — the agent's signal to re-register (a restarted
// router that lost state answers every heartbeat this way until the
// fleet re-announces itself).
var ErrUnknownMember = errors.New("fleet: unknown member")

// RegisterRequest is the POST /v1/fleet/register body.
type RegisterRequest struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
	// Capabilities is free-form replica metadata (serve version, model
	// systems, hardware class) surfaced in the fleet view.
	Capabilities map[string]string `json:"capabilities,omitempty"`
}

// RegisterResponse grants the lease: the member must heartbeat within
// LeaseTTLMs or be ejected; HeartbeatMs is the router's suggested beat
// cadence (TTL/3, before agent-side jitter).
type RegisterResponse struct {
	State       string `json:"state"`
	LeaseTTLMs  int64  `json:"lease_ttl_ms"`
	HeartbeatMs int64  `json:"heartbeat_ms"`
	Epoch       uint64 `json:"epoch"`
}

// HeartbeatRequest is the POST /v1/fleet/heartbeat body.
type HeartbeatRequest struct {
	Name string `json:"name"`
}

// HeartbeatResponse confirms a lease renewal.
type HeartbeatResponse struct {
	State      string `json:"state"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
	Epoch      uint64 `json:"epoch"`
}

// DeregisterRequest is the POST /v1/fleet/deregister body.
type DeregisterRequest struct {
	Name string `json:"name"`
}

// DeregisterResponse confirms the arc handoff: Drained true means every
// row this router had in flight on the member completed before the reply,
// so the member can exit with zero lost requests.
type DeregisterResponse struct {
	Drained     bool   `json:"drained"`
	PendingRows int64  `json:"pending_rows"`
	Epoch       uint64 `json:"epoch"`
}

// Register admits a member (or renews a returning one). New members start
// joining — off the ring until the first successful health probe — unless
// recent involuntary exits put them over the flap threshold, in which
// case they start damped. The error, when non-nil, is a *BackendError.
func (rt *Router) Register(req RegisterRequest) (RegisterResponse, error) {
	name := strings.TrimSpace(req.Name)
	if name == "" {
		return RegisterResponse{}, &BackendError{Status: http.StatusBadRequest, Msg: "missing \"name\""}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rs, ok := rt.replicas[name]; ok {
		// Known member re-announcing: the replica bounced faster than its
		// lease, or a partition healed. Refresh what it told us.
		rs.lease.Renew()
		rs.capabilities = req.Capabilities
		rt.memlog.Record(name, obs.MemberEventReRegister, "")
		rt.saveSnapshotLocked()
		return rt.grantLocked(rs), nil
	}
	if rt.backend == nil {
		return RegisterResponse{}, &BackendError{Status: http.StatusNotImplemented,
			Msg: "dynamic registration disabled (router built without a backend factory)"}
	}
	be, err := rt.backend(name, req.BaseURL)
	if err != nil {
		return RegisterResponse{}, &BackendError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	rs := rt.newMemberLocked(name, be, req.BaseURL, req.Capabilities)
	rt.memlog.Record(name, obs.MemberEventRegister, req.BaseURL)
	if rt.flapCountLocked(name) >= flapThreshold {
		rs.state = MemberDamped
		rs.dampedUntil = rt.now().Add(dampHold)
		rt.memlog.Record(name, obs.MemberEventFlapDamped,
			fmt.Sprintf("%d involuntary exits within %s", rt.flapCountLocked(name), flapWindow))
	}
	rt.saveSnapshotLocked()
	return rt.grantLocked(rs), nil
}

// newMemberLocked builds a member's record (state joining, fresh lease) and
// indexes it; every member enters here, and removeMemberLocked is its one
// way out. NewRouter makes its boot members active with no lease. Callers
// hold rt.mu.
func (rt *Router) newMemberLocked(name string, be Predictor, baseURL string, caps map[string]string) *replicaState {
	rs := &replicaState{
		backend:      be,
		breaker:      rt.res.NewBreaker(name, rt.breakerCfg),
		versions:     make(map[string]int),
		state:        MemberJoining,
		lease:        resilience.NewLease(rt.leaseTTL, rt.now),
		baseURL:      baseURL,
		capabilities: caps,
		registeredAt: rt.now(),
	}
	rs.gateInflight.Store(-1)
	rt.replicas[name] = rs
	rt.insertNameLocked(name)
	return rs
}

func (rt *Router) grantLocked(rs *replicaState) RegisterResponse {
	ttl := rs.lease.TTL()
	return RegisterResponse{
		State:       rs.state,
		LeaseTTLMs:  ttl.Milliseconds(),
		HeartbeatMs: (ttl / 3).Milliseconds(),
		Epoch:       rt.epoch.Load(),
	}
}

// Heartbeat renews a member's lease. ErrUnknownMember (404 on the wire)
// tells the agent to re-register.
func (rt *Router) Heartbeat(name string) (HeartbeatResponse, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rs, ok := rt.replicas[name]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownMember
	}
	rs.lease.Renew()
	return HeartbeatResponse{
		State:      rs.state,
		LeaseTTLMs: rs.lease.TTL().Milliseconds(),
		Epoch:      rt.epoch.Load(),
	}, nil
}

// Deregister is the coordinated-drain handshake: the member leaves the
// ring immediately (one minimal remap — new rows route elsewhere), then
// the router waits for the rows it already dispatched to the member to
// finish before confirming, so a SIGTERM'd replica knows its arcs handed
// off with zero lost requests before it starts its own HTTP drain.
// Graceful exits record no flap — only involuntary ones do.
func (rt *Router) Deregister(ctx context.Context, name string) (DeregisterResponse, error) {
	rt.mu.Lock()
	rs, ok := rt.replicas[name]
	if !ok {
		rt.mu.Unlock()
		return DeregisterResponse{}, ErrUnknownMember
	}
	if rs.state == MemberDraining {
		rt.mu.Unlock()
		return DeregisterResponse{}, &BackendError{Status: http.StatusConflict, Msg: fmt.Sprintf("member %s already draining", name)}
	}
	rs.state = MemberDraining
	if rt.ring.Has(name) {
		rt.ringRemoveLocked(name)
	}
	rt.mu.Unlock()

	drained := rt.awaitHandoff(ctx, rs)
	pending := rs.inflight.Load()

	rt.mu.Lock()
	if rt.replicas[name] == rs { // not already removed by a racing lease sweep
		rt.removeMemberLocked(name)
		rt.memlog.Record(name, obs.MemberEventDeregister,
			fmt.Sprintf("drained=%t pending_rows=%d", drained, pending))
		rt.saveSnapshotLocked()
	}
	epoch := rt.epoch.Load()
	rt.mu.Unlock()
	return DeregisterResponse{Drained: drained, PendingRows: pending, Epoch: epoch}, nil
}

// awaitHandoff polls the member's router-side inflight down to zero,
// bounded by ctx (callers without a deadline get drainWait).
func (rt *Router) awaitHandoff(ctx context.Context, rs *replicaState) bool {
	if rs.inflight.Load() == 0 {
		return true
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, drainWait)
		defer cancel()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return rs.inflight.Load() == 0
		case <-tick.C:
			if rs.inflight.Load() == 0 {
				return true
			}
		}
	}
}

// expireLeases sweeps lapsed leases (run by each probe cycle): an expired
// member is removed entirely — ring arcs remap minimally, its metric and
// scrape series disappear — and the exit counts as a flap, so a member
// cycling through register/expire hits the damping hold.
func (rt *Router) expireLeases() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var expired []string
	for _, name := range rt.names {
		rs := rt.replicas[name]
		if rs.state == MemberDraining {
			continue // Deregister owns this exit
		}
		if rs.lease.Expired() {
			expired = append(expired, name)
		}
	}
	for _, name := range expired {
		rt.recordFlapLocked(name)
		rt.memlog.Record(name, obs.MemberEventLeaseExpired,
			fmt.Sprintf("no heartbeat within %s", rt.leaseTTL))
		rt.logger.Warn("fleet member lease expired", "replica", name)
		rt.removeMemberLocked(name)
	}
	if len(expired) > 0 {
		rt.saveSnapshotLocked()
	}
}

// removeMemberLocked forgets a member completely: ring arcs remap, its
// counters leave /metrics with its record, its cached scrape series are
// dropped (no ghost iorouter_replica_up series for departed members), its
// breaker leaves the resilience set and its idle connections are closed (one
// still in use, by the transport's idle timeout). Callers hold rt.mu.
func (rt *Router) removeMemberLocked(name string) {
	rs, ok := rt.replicas[name]
	if !ok {
		return
	}
	if rt.ring.Has(name) {
		rt.ringRemoveLocked(name)
	}
	delete(rt.replicas, name)
	for i, n := range rt.names {
		if n == name {
			rt.names = append(rt.names[:i], rt.names[i+1:]...)
			break
		}
	}
	rt.scrape.Remove(name)
	rt.res.RemoveBreaker(rs.breaker)
	closeIdle(rs.backend)
}

// insertNameLocked adds name to the sorted index. Callers hold rt.mu.
func (rt *Router) insertNameLocked(name string) {
	i := 0
	for i < len(rt.names) && rt.names[i] < name {
		i++
	}
	rt.names = append(rt.names, "")
	copy(rt.names[i+1:], rt.names[i:])
	rt.names[i] = name
}

// ringAddLocked / ringRemoveLocked are the only ring mutators after boot:
// every flip is one minimal remap and bumps the membership epoch clients
// see on responses (and /metrics as iorouter_ring_remaps_total). Callers
// hold rt.mu.
func (rt *Router) ringAddLocked(name string) {
	rt.ring.Add(name)
	rt.epoch.Add(1)
}

func (rt *Router) ringRemoveLocked(name string) {
	rt.ring.Remove(name)
	rt.epoch.Add(1)
}

// recordFlapLocked stamps one involuntary exit (lease expiry or breaker
// ejection) into the member's flap history; flapCountLocked counts the
// stamps still inside the window. Every history loses its stamps that have
// left the window, and a name with none left loses its entry, so names that
// come and go do not pile up. Callers hold rt.mu.
func (rt *Router) recordFlapLocked(name string) {
	now := rt.now()
	stale := func(t time.Time) bool { return now.Sub(t) >= flapWindow }
	for n, stamps := range rt.flaps {
		if rt.flaps[n] = slices.DeleteFunc(stamps, stale); len(rt.flaps[n]) == 0 {
			delete(rt.flaps, n)
		}
	}
	rt.flaps[name] = append(rt.flaps[name], now)
}

func (rt *Router) flapCountLocked(name string) int {
	now := rt.now()
	n := 0
	for _, t := range rt.flaps[name] {
		if now.Sub(t) < flapWindow {
			n++
		}
	}
	return n
}

// noteHealthy handles probe-success state transitions: the first healthy
// probe admits a joining (or snapshot-restored) member, and a damped
// member whose hold has elapsed rejoins.
func (rt *Router) noteHealthy(name string, rs *replicaState) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.replicas[name] != rs {
		return // removed while the probe was in flight
	}
	switch rs.state {
	case MemberJoining:
		rs.state = MemberActive
		rt.memlog.Record(name, obs.MemberEventAdmit, "first health probe passed")
		rt.logger.Info("fleet member admitted", "replica", name)
	case MemberDamped:
		if !rt.now().Before(rs.dampedUntil) {
			rs.state = MemberActive
			rt.memlog.Record(name, obs.MemberEventReadmit, "damping hold elapsed")
			rt.logger.Info("fleet member readmitted after damping", "replica", name)
		}
	}
}

// --- snapshot persistence -------------------------------------------------

// memberSnapshot is one leased member in the persisted snapshot.
type memberSnapshot struct {
	Name         string            `json:"name"`
	BaseURL      string            `json:"base_url"`
	Capabilities map[string]string `json:"capabilities,omitempty"`
	RegisteredAt time.Time         `json:"registered_at"`
}

// MembershipSnapshot is the persisted membership state. Only leased members
// are recorded: boot members come back from flags, and draining members are
// already leaving.
type MembershipSnapshot struct {
	SavedAt time.Time        `json:"saved_at"`
	Epoch   uint64           `json:"epoch"`
	Members []memberSnapshot `json:"members"`
}

// saveSnapshotLocked persists membership via temp-file+rename (the same
// crash-safe protocol the model registry uses), so a router restart never
// reads a half-written snapshot. Callers hold rt.mu; a write failure is
// logged, not fatal — persistence is an optimization, the fleet re-forms
// from re-registrations either way.
func (rt *Router) saveSnapshotLocked() {
	if rt.statePath == "" {
		return
	}
	snap := MembershipSnapshot{SavedAt: rt.now(), Epoch: rt.epoch.Load()}
	for _, name := range rt.names {
		rs := rt.replicas[name]
		if rs.lease == nil || rs.state == MemberDraining {
			continue
		}
		snap.Members = append(snap.Members, memberSnapshot{
			Name:         name,
			BaseURL:      rs.baseURL,
			Capabilities: rs.capabilities,
			RegisteredAt: rs.registeredAt,
		})
	}
	if err := writeSnapshot(rt.statePath, &snap); err != nil {
		rt.logger.Warn("fleet membership snapshot write failed", "path", rt.statePath, "err", err)
	}
}

func writeSnapshot(path string, snap *MembershipSnapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".membership-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadSnapshot reads a persisted membership snapshot. A missing file is
// (nil, nil): a first boot, not an error.
func loadSnapshot(path string) (*MembershipSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var snap MembershipSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("fleet: snapshot %s unreadable: %w", path, err)
	}
	return &snap, nil
}

// restore re-registers the members of the snapshot at rt.statePath; NewRouter
// runs it before anything else sees the router. Restored members are
// quarantined — state joining, off the ring — until their first successful
// health probe, and carry a fresh lease, so a stale entry (a replica that
// died while the router was down) expires away instead of taking arcs it
// cannot serve. A boot member keeps its place over an entry of its name. A
// corrupt snapshot must not keep the fleet down: it is logged, and
// re-registrations rebuild membership.
func (rt *Router) restore() {
	snap, err := loadSnapshot(rt.statePath)
	if err != nil {
		rt.logger.Warn("fleet membership snapshot unreadable; starting empty", "path", rt.statePath, "err", err)
		return
	}
	if snap == nil || rt.backend == nil {
		return
	}
	n := 0
	for _, m := range snap.Members {
		if m.Name == "" {
			continue
		}
		if _, dup := rt.replicas[m.Name]; dup {
			continue
		}
		be, err := rt.backend(m.Name, m.BaseURL)
		if err != nil {
			rt.logger.Warn("fleet snapshot member unrestorable", "replica", m.Name, "err", err)
			continue
		}
		rs := rt.newMemberLocked(m.Name, be, m.BaseURL, m.Capabilities)
		if !m.RegisteredAt.IsZero() {
			rs.registeredAt = m.RegisteredAt
		}
		rt.memlog.Record(m.Name, obs.MemberEventSnapshotRestore, "quarantined until first health probe")
		n++
	}
	if n > 0 {
		rt.logger.Info("fleet membership restored from snapshot", "path", rt.statePath, "members", n, "saved_at", snap.SavedAt)
		rt.saveSnapshotLocked()
	}
}

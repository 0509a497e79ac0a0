package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience/chaos"
	"iotaxo/internal/serve"
)

// memClock is a mutex-guarded fake clock: ProbeOnce reads it from probe
// goroutines while the test advances it.
type memClock struct {
	mu sync.Mutex
	t  time.Time
}

func newMemClock() *memClock { return &memClock{t: time.Unix(50_000, 0)} }

func (c *memClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *memClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// stubFleet resolves dynamic registrations to scriptable in-memory
// replicas: the Backend factory hands out (lazily created) stubs by name,
// so tests drive membership through the same factory path cmd/iorouter
// wires to NewRemote.
type stubFleet struct {
	mu    sync.Mutex
	stubs map[string]*stubReplica
}

func newStubFleet() *stubFleet { return &stubFleet{stubs: make(map[string]*stubReplica)} }

func (f *stubFleet) get(name string) *stubReplica {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.stubs[name]; ok {
		return s
	}
	s := newStub(name)
	f.stubs[name] = s
	return s
}

func (f *stubFleet) factory(name, baseURL string) (Predictor, error) {
	if strings.HasPrefix(baseURL, "bogus://") {
		return nil, fmt.Errorf("unsupported scheme in %q", baseURL)
	}
	return f.get(name), nil
}

// newMembershipRouter builds a router over the boot replicas reps (often
// none) with a fake clock, a stub backend factory, and a 3s lease unless
// cfg sets one.
func newMembershipRouter(t *testing.T, clk *memClock, fl *stubFleet, cfg RouterConfig, reps ...Predictor) *Router {
	t.Helper()
	cfg.Now = clk.now
	if cfg.Backend == nil {
		cfg.Backend = fl.factory
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	return newTestRouter(t, cfg, reps...)
}

func memberView(t *testing.T, rt *Router, name string) (ReplicaView, bool) {
	t.Helper()
	for _, rv := range rt.View().Replicas {
		if rv.Name == name {
			return rv, true
		}
	}
	return ReplicaView{}, false
}

func TestRegisterJoinAdmit(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})

	// Zero-replica boot: the router is up but routes nothing yet.
	if v := rt.View(); v.Healthy != 0 || len(v.Replicas) != 0 {
		t.Fatalf("empty router view: %+v", v)
	}
	if _, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{1, 2}}); err == nil {
		t.Fatal("empty router routed a request")
	}

	resp, err := rt.Register(RegisterRequest{
		Name: "r1", BaseURL: "http://r1:8081",
		Capabilities: map[string]string{"service": "ioserve"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != MemberJoining {
		t.Fatalf("registered state = %q, want joining", resp.State)
	}
	if resp.LeaseTTLMs != 3000 || resp.HeartbeatMs != 1000 {
		t.Fatalf("grant = %+v, want 3000ms lease / 1000ms beat", resp)
	}

	// Quarantine: registered but not yet probed healthy — off the ring.
	rv, ok := memberView(t, rt, "r1")
	if !ok || rv.State != MemberJoining || rv.InRing || !rv.Leased {
		t.Fatalf("joining view = %+v", rv)
	}
	if rv.BaseURL != "http://r1:8081" || rv.Capabilities["service"] != "ioserve" {
		t.Fatalf("metadata lost: %+v", rv)
	}
	if _, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{1, 2}}); err == nil {
		t.Fatal("joining member took traffic before its first health probe")
	}

	// First healthy probe admits: active, on the ring, epoch bumped.
	before := rt.Epoch()
	rt.ProbeOnce()
	rv, _ = memberView(t, rt, "r1")
	if rv.State != MemberActive || !rv.InRing {
		t.Fatalf("post-probe view = %+v", rv)
	}
	if rt.Epoch() != before+1 {
		t.Fatalf("epoch %d -> %d, want one bump on admit", before, rt.Epoch())
	}
	out, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out.MembershipEpoch != rt.Epoch() {
		t.Fatalf("response epoch %d, want %d", out.MembershipEpoch, rt.Epoch())
	}
	if got := rt.memlog.Count(obs.MemberEventAdmit); got != 1 {
		t.Fatalf("admit events = %d", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})

	if _, err := rt.Register(RegisterRequest{Name: "  "}); status(err) != http.StatusBadRequest {
		t.Fatalf("blank name: %v", err)
	}
	if _, err := rt.Register(RegisterRequest{Name: "rX", BaseURL: "bogus://nope"}); status(err) != http.StatusBadRequest {
		t.Fatalf("factory rejection not surfaced as 400: %v", err)
	}

	// A router built without a backend factory cannot mint members.
	static := newTestRouter(t, RouterConfig{Now: clk.now}, newStub("s0"))
	if _, err := static.Register(RegisterRequest{Name: "rX", BaseURL: "http://x"}); status(err) != http.StatusNotImplemented {
		t.Fatalf("factory-less register: %v", err)
	}

	// Re-registering a live member renews in place: no duplicate entry,
	// refreshed capabilities.
	if _, err := rt.Register(RegisterRequest{Name: "r1", BaseURL: "http://r1:8081"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(RegisterRequest{Name: "r1", BaseURL: "http://r1:8081",
		Capabilities: map[string]string{"gen": "2"}}); err != nil {
		t.Fatal(err)
	}
	v := rt.View()
	if len(v.Replicas) != 1 {
		t.Fatalf("re-register duplicated the member: %d entries", len(v.Replicas))
	}
	if v.Replicas[0].Capabilities["gen"] != "2" {
		t.Fatalf("re-register did not refresh capabilities: %+v", v.Replicas[0])
	}
	if got := rt.memlog.Count(obs.MemberEventReRegister); got != 1 {
		t.Fatalf("re_register events = %d", got)
	}
}

func status(err error) int {
	var be *BackendError
	if errors.As(err, &be) {
		return be.Status
	}
	return 0
}

func TestHeartbeatRenewsAndLeaseExpiryEjects(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})
	for _, name := range []string{"r1", "r2"} {
		if _, err := rt.Register(RegisterRequest{Name: name, BaseURL: "http://" + name}); err != nil {
			t.Fatal(err)
		}
	}
	rt.ProbeOnce()
	if v := rt.View(); v.Healthy != 2 {
		t.Fatalf("healthy = %d after admitting both", v.Healthy)
	}

	// r1 heartbeats on the suggested cadence; r2 goes silent. Walk the
	// clock past the 3s TTL in 1s beats.
	for i := 0; i < 4; i++ {
		clk.advance(time.Second)
		if _, err := rt.Heartbeat("r1"); err != nil {
			t.Fatal(err)
		}
		rt.ProbeOnce()
	}

	if _, ok := memberView(t, rt, "r1"); !ok {
		t.Fatal("heartbeating member was ejected")
	}
	if _, ok := memberView(t, rt, "r2"); ok {
		t.Fatal("silent member survived its lease")
	}
	if got := rt.memlog.Count(obs.MemberEventLeaseExpired); got != 1 {
		t.Fatalf("lease_expired events = %d", got)
	}
	// The expired member's heartbeat now 404s — the agent's re-register
	// signal.
	if _, err := rt.Heartbeat("r2"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("heartbeat after expiry: %v", err)
	}
	// Its series are gone from the merged exposition (no ghost
	// iorouter_replica_up rows), and the survivor's remain.
	var buf bytes.Buffer
	if err := obs.WriteFamilies(&buf, rt.scrape.Collect(nil)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `replica="r2"`) {
		t.Fatalf("expired member still in scrape exposition:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `iorouter_replica_up{replica="r1"} 1`) {
		t.Fatalf("survivor missing from scrape exposition:\n%s", buf.String())
	}
	buf.Reset()
	if err := obs.WriteFamilies(&buf, rt.collect(nil)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `replica="r2"`) {
		t.Fatalf("expired member still in router metrics:\n%s", buf.String())
	}
}

func TestFlapDamping(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{LeaseTTL: time.Second})

	// Three involuntary exits (register, go silent, lease expires) inside
	// the flap window...
	for i := 0; i < 3; i++ {
		if _, err := rt.Register(RegisterRequest{Name: "flappy", BaseURL: "http://flappy"}); err != nil {
			t.Fatal(err)
		}
		rt.ProbeOnce() // admit
		clk.advance(1100 * time.Millisecond)
		rt.ProbeOnce() // expire
		if _, ok := memberView(t, rt, "flappy"); ok {
			t.Fatalf("cycle %d: member survived lease expiry", i)
		}
	}

	// ...and the fourth registration is quarantined damped: healthy
	// probes do not readmit until the hold elapses.
	resp, err := rt.Register(RegisterRequest{Name: "flappy", BaseURL: "http://flappy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != MemberDamped {
		t.Fatalf("flapping member registered as %q, want damped", resp.State)
	}
	if got := rt.memlog.Count(obs.MemberEventFlapDamped); got == 0 {
		t.Fatal("no flap_damped event recorded")
	}
	clk.advance(5 * time.Second) // heartbeat-covered, hold not yet elapsed
	if _, err := rt.Heartbeat("flappy"); err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce()
	if rv, _ := memberView(t, rt, "flappy"); rv.State != MemberDamped || rv.InRing {
		t.Fatalf("mid-hold view = %+v, want damped off-ring", rv)
	}

	// Hold elapsed + healthy probe → readmitted.
	clk.advance(6 * time.Second)
	if _, err := rt.Heartbeat("flappy"); err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce()
	if rv, _ := memberView(t, rt, "flappy"); rv.State != MemberActive || !rv.InRing {
		t.Fatalf("post-hold view = %+v, want active on-ring", rv)
	}
	if got := rt.memlog.Count(obs.MemberEventReadmit); got != 1 {
		t.Fatalf("readmit events = %d", got)
	}

	// Graceful exits carry no flap penalty: drain out and rejoin clean.
	if _, err := rt.Deregister(context.Background(), "flappy"); err != nil {
		t.Fatal(err)
	}
	clk.advance(61 * time.Second) // old involuntary flaps age out of the window
	resp, err = rt.Register(RegisterRequest{Name: "flappy", BaseURL: "http://flappy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != MemberJoining {
		t.Fatalf("post-drain re-register state = %q, want joining", resp.State)
	}
}

func TestBreakerEjectionCountsAsFlap(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})
	if _, err := rt.Register(RegisterRequest{Name: "r1", BaseURL: "http://r1"}); err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce()

	fl.get("r1").setDown(true)
	rt.ProbeOnce() // breaker threshold 2 in newTestRouter
	rt.ProbeOnce()
	rv, ok := memberView(t, rt, "r1")
	if !ok {
		t.Fatal("breaker ejection removed the member entirely (that is lease expiry's job)")
	}
	if rv.InRing {
		t.Fatal("tripped member still on the ring")
	}
	if rv.Flaps == 0 {
		t.Fatal("breaker ejection did not record a flap")
	}
	if got := rt.memlog.Count(obs.MemberEventEject); got == 0 {
		t.Fatal("no eject event recorded")
	}
}

// gatedStub blocks Predict until released, so drain tests can hold rows
// in flight deterministically.
type gatedStub struct {
	*stubReplica
	started chan struct{}
	release chan struct{}
}

func newGatedStub(name string) *gatedStub {
	return &gatedStub{
		stubReplica: newStub(name),
		started:     make(chan struct{}, 16),
		release:     make(chan struct{}),
	}
}

func (g *gatedStub) Predict(ctx context.Context, req *serve.PredictRequest, out *serve.PredictResponse) error {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.stubReplica.Predict(ctx, req, out)
}

func TestDeregisterCoordinatedDrain(t *testing.T) {
	clk := newMemClock()
	gated := newGatedStub("r1")
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{
		Backend: func(name, baseURL string) (Predictor, error) { return gated, nil },
	})
	if _, err := rt.Register(RegisterRequest{Name: "r1", BaseURL: "http://r1"}); err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce()

	// Hold a row in flight on the sole member.
	routeDone := make(chan error, 1)
	go func() {
		_, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{3, 1}})
		routeDone <- err
	}()
	<-gated.started

	// Deregister must not confirm while that row is in flight.
	deregDone := make(chan DeregisterResponse, 1)
	go func() {
		resp, err := rt.Deregister(context.Background(), "r1")
		if err != nil {
			t.Error(err)
		}
		deregDone <- resp
	}()

	// The member leaves the ring immediately (new rows route elsewhere —
	// here, nowhere) while the handshake waits.
	waitFor(t, func() bool {
		rv, ok := memberView(t, rt, "r1")
		return ok && rv.State == MemberDraining && !rv.InRing
	}, "member draining off-ring")
	select {
	case <-deregDone:
		t.Fatal("drain confirmed with a row still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// A second deregister while draining is a conflict.
	if _, err := rt.Deregister(context.Background(), "r1"); status(err) != http.StatusConflict {
		t.Fatalf("concurrent deregister: %v", err)
	}

	// Release the row: the handshake confirms with zero pending rows and
	// the member is forgotten.
	close(gated.release)
	if err := <-routeDone; err != nil {
		t.Fatalf("in-flight route lost during drain: %v", err)
	}
	resp := <-deregDone
	if !resp.Drained || resp.PendingRows != 0 {
		t.Fatalf("drain resp = %+v", resp)
	}
	if _, ok := memberView(t, rt, "r1"); ok {
		t.Fatal("drained member still tracked")
	}
	if _, err := rt.Deregister(context.Background(), "r1"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("deregister after removal: %v", err)
	}
	if got := rt.memlog.Count(obs.MemberEventDeregister); got != 1 {
		t.Fatalf("deregister events = %d", got)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	// Generous bound: these tests share the machine with -race siblings,
	// and a slow pass beats a flaky one.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// readSnapshot decodes the membership snapshot a router wrote at path.
func readSnapshot(t *testing.T, path string) *MembershipSnapshot {
	t.Helper()
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotPersistAndRestore restarts a router on its own StatePath: NewRouter
// restores the snapshot's members, quarantined until each proves itself.
func TestSnapshotPersistAndRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "membership.json")
	clk := newMemClock()
	fl := newStubFleet()

	rt := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: path})
	for _, name := range []string{"r1", "r2", "r3"} {
		if _, err := rt.Register(RegisterRequest{Name: name, BaseURL: "http://" + name,
			Capabilities: map[string]string{"service": "ioserve"}}); err != nil {
			t.Fatal(err)
		}
	}
	rt.ProbeOnce()
	// r3 drains out gracefully: the snapshot must not resurrect it.
	if _, err := rt.Deregister(context.Background(), "r3"); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, path)
	if snap == nil || len(snap.Members) != 2 {
		t.Fatalf("snapshot = %+v, want 2 members", snap)
	}
	for _, m := range snap.Members {
		if m.Name == "r3" {
			t.Fatal("drained member persisted in snapshot")
		}
		if m.Capabilities["service"] != "ioserve" {
			t.Fatalf("snapshot lost capabilities: %+v", m)
		}
	}

	rt2 := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: path})
	if got := rt2.memlog.Count(obs.MemberEventSnapshotRestore); got != 2 {
		t.Fatalf("snapshot_restore events = %d, want 2", got)
	}
	if _, ok := memberView(t, rt2, "r3"); ok {
		t.Fatal("restart resurrected the drained member")
	}
	for _, name := range []string{"r1", "r2"} {
		rv, ok := memberView(t, rt2, name)
		if !ok || rv.State != MemberJoining || rv.InRing || !rv.Leased || rv.Capabilities["service"] != "ioserve" {
			t.Fatalf("restored %s view = %+v, want joining off-ring with its lease and capabilities", name, rv)
		}
	}

	// r1 is still alive and passes its probe; r2 died while the router was
	// down — it stays quarantined and its fresh lease expires it away.
	fl.get("r2").setDown(true)
	rt2.ProbeOnce()
	if rv, _ := memberView(t, rt2, "r1"); rv.State != MemberActive || !rv.InRing {
		t.Fatalf("live restored member = %+v", rv)
	}
	clk.advance(4 * time.Second)
	if _, err := rt2.Heartbeat("r1"); err != nil {
		t.Fatal(err)
	}
	rt2.ProbeOnce()
	if _, ok := memberView(t, rt2, "r2"); ok {
		t.Fatal("stale snapshot member survived without heartbeats")
	}
	if v := rt2.View(); v.Healthy != 1 {
		t.Fatalf("healthy = %d after stale member expired", v.Healthy)
	}

	// A third start with r1 as a boot member: the boot member keeps its
	// place over the snapshot entry of its name, and only r4 is restored.
	if _, err := rt2.Register(RegisterRequest{Name: "r4", BaseURL: "http://r4"}); err != nil {
		t.Fatal(err)
	}
	if snap := readSnapshot(t, path); len(snap.Members) != 2 {
		t.Fatalf("snapshot = %+v, want r1 and r4", snap)
	}
	rt3 := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: path}, newStub("r1"))
	if got := rt3.memlog.Count(obs.MemberEventSnapshotRestore); got != 1 {
		t.Fatalf("snapshot_restore events = %d, want 1 (r4)", got)
	}
	if rv, _ := memberView(t, rt3, "r1"); rv.State != MemberActive || !rv.InRing || rv.Leased {
		t.Fatalf("boot member under a snapshot entry = %+v, want active on the ring, unleased", rv)
	}
	if rv, _ := memberView(t, rt3, "r4"); rv.State != MemberJoining || rv.InRing {
		t.Fatalf("restored r4 = %+v, want joining off-ring", rv)
	}
	if v := rt3.View(); v.Epoch != 0 || len(v.Replicas) != 2 {
		t.Fatalf("third start = %+v, want r1 and r4 at epoch 0", v)
	}
}

// TestLoadSnapshotEdgeCases starts a router on an absent and on a
// corrupt snapshot: both boot an empty fleet, and the corrupt one says so
// in the log instead of trusting garbage.
func TestLoadSnapshotEdgeCases(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, warn string
	}{
		{"absent", filepath.Join(dir, "absent.json"), ""},
		{"corrupt", bad, "fleet membership snapshot unreadable; starting empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			rt := newMembershipRouter(t, newMemClock(), newStubFleet(), RouterConfig{StatePath: tc.path,
				Logger: slog.New(slog.NewTextHandler(&logs, nil))})
			if v := rt.View(); len(v.Replicas) != 0 || v.Healthy != 0 {
				t.Fatalf("fleet = %+v, want empty", v)
			}
			switch got := logs.String(); {
			case tc.warn == "" && got != "":
				t.Fatalf("first boot logged:\n%s", got)
			case tc.warn != "" && !strings.Contains(got, `level=WARN msg="`+tc.warn+`"`):
				t.Fatalf("log = %q, want the warning %q", got, tc.warn)
			}
		})
	}
}

func TestMembershipEndpoints(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})
	ts := httptest.NewServer(NewHandler(rt, HandlerConfig{AdminToken: "sekrit"}))
	t.Cleanup(ts.Close)

	post := func(path, token string, body any) (int, map[string]any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	// The registration plane is admin-gated like every mutating surface.
	if code, _ := post("/v1/fleet/register", "", RegisterRequest{Name: "r1", BaseURL: "http://r1"}); code != http.StatusUnauthorized {
		t.Fatalf("tokenless register = %d", code)
	}
	code, body := post("/v1/fleet/register", "sekrit", RegisterRequest{Name: "r1", BaseURL: "http://r1"})
	if code != http.StatusOK {
		t.Fatalf("register = %d %v", code, body)
	}
	if body["state"] != MemberJoining || body["lease_ttl_ms"].(float64) != 3000 {
		t.Fatalf("register body = %v", body)
	}

	if code, _ = post("/v1/fleet/heartbeat", "sekrit", HeartbeatRequest{Name: "r1"}); code != http.StatusOK {
		t.Fatalf("heartbeat = %d", code)
	}
	if code, _ = post("/v1/fleet/heartbeat", "sekrit", HeartbeatRequest{Name: "ghost"}); code != http.StatusNotFound {
		t.Fatalf("unknown heartbeat = %d, want 404 (the re-register signal)", code)
	}
	if code, _ = post("/v1/fleet/deregister", "sekrit", DeregisterRequest{Name: "ghost"}); code != http.StatusNotFound {
		t.Fatalf("unknown deregister = %d", code)
	}

	// Malformed bodies and wrong methods are rejected at the door.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/fleet/register", strings.NewReader(`{"name":"x","surprise":true}`))
	req.Header.Set("X-Admin-Token", "sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field register = %d", resp.StatusCode)
	}
	getReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/fleet/heartbeat", nil)
	getReq.Header.Set("X-Admin-Token", "sekrit")
	resp, err = http.DefaultClient.Do(getReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET heartbeat = %d", resp.StatusCode)
	}

	// Drain over the wire, then confirm the fleet view and metrics track
	// the lifecycle.
	code, body = post("/v1/fleet/deregister", "sekrit", DeregisterRequest{Name: "r1"})
	if code != http.StatusOK || body["drained"] != true {
		t.Fatalf("deregister = %d %v", code, body)
	}
	status, text := fetchText(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	for _, want := range []string{
		`iorouter_membership_events_total{event="register"} 1`,
		`iorouter_membership_events_total{event="deregister"} 1`,
		`iorouter_membership_events_total{event="lease_expired"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAgentLifecycle(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})
	ts := httptest.NewServer(NewHandler(rt, HandlerConfig{AdminToken: "sekrit"}))
	t.Cleanup(ts.Close)

	agent, err := NewAgent(AgentConfig{
		RouterURL:    ts.URL,
		Name:         "r1",
		AdvertiseURL: "http://r1:8081",
		Capabilities: map[string]string{"service": "ioserve"},
		AdminToken:   "sekrit",
		Heartbeat:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan struct{})
	go func() { agent.Run(ctx); close(agentDone) }()

	// The agent announces itself and keeps the lease renewed.
	waitFor(t, func() bool {
		_, ok := memberView(t, rt, "r1")
		return ok
	}, "agent registration")
	rt.ProbeOnce()
	if rv, _ := memberView(t, rt, "r1"); rv.State != MemberActive {
		t.Fatalf("agent-registered member = %+v", rv)
	}

	// Router "forgets" the member (as a restart without a snapshot
	// would): the next heartbeat 404s and the agent re-registers on its
	// own.
	rt.mu.Lock()
	rt.removeMemberLocked("r1")
	rt.mu.Unlock()
	waitFor(t, func() bool {
		_, ok := memberView(t, rt, "r1")
		return ok
	}, "agent re-registration after 404 heartbeat")
	if got := rt.memlog.Count(obs.MemberEventRegister); got < 2 {
		t.Fatalf("register events = %d, want a second one from self-healing", got)
	}

	// Coordinated shutdown: stop heartbeating, run the drain handshake.
	cancel()
	<-agentDone
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	resp, err := agent.Drain(dctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Drained {
		t.Fatalf("drain resp = %+v", resp)
	}
	if _, ok := memberView(t, rt, "r1"); ok {
		t.Fatal("drained agent still tracked")
	}
	// Draining again finds nothing — and that is success, not an error.
	resp, err = agent.Drain(dctx)
	if err != nil || !resp.Drained {
		t.Fatalf("second drain = %+v, %v", resp, err)
	}
}

func TestAgentChaosFaults(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	rt := newMembershipRouter(t, clk, fl, RouterConfig{})
	ts := httptest.NewServer(Handler(rt))
	t.Cleanup(ts.Close)

	// A fully partitioned registration plane: registration never lands,
	// and Drain gives up when its context ends — the caller falls back to
	// lease expiry.
	inj := chaos.NewInjector(chaos.Config{PartitionProb: 1}, 42)
	agent, err := NewAgent(AgentConfig{RouterURL: ts.URL, Name: "r1", AdvertiseURL: "http://r1", Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	runDone := make(chan struct{})
	go func() { agent.Run(ctx); close(runDone) }()
	<-runDone
	if _, ok := memberView(t, rt, "r1"); ok {
		t.Fatal("partitioned agent registered anyway")
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if _, err := agent.Drain(dctx); err == nil {
		t.Fatal("partitioned drain reported success")
	}

	// Heartbeat loss at prob 1: the agent registers fine (partition and
	// heartbeat loss are distinct faults) but every beat drops, so the
	// lease lapses and the router ejects the member.
	inj2 := chaos.NewInjector(chaos.Config{HeartbeatLossProb: 1}, 42)
	agent2, err := NewAgent(AgentConfig{
		RouterURL: ts.URL, Name: "r2", AdvertiseURL: "http://r2",
		Heartbeat: time.Millisecond, Chaos: inj2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go agent2.Run(ctx2)
	waitFor(t, func() bool {
		_, ok := memberView(t, rt, "r2")
		return ok
	}, "lossy agent registration")
	clk.advance(4 * time.Second)
	rt.ProbeOnce()
	if _, ok := memberView(t, rt, "r2"); ok {
		t.Fatal("member survived with every heartbeat dropped")
	}
	if got := rt.memlog.Count(obs.MemberEventLeaseExpired); got == 0 {
		t.Fatal("no lease_expired event for the lossy member")
	}
}

// TestFlapHistoryIsPruned: a router whose members churn through fresh names
// keeps no flap history for a name whose stamps have all left the window.
// A thousand names flap once each; past the window, one more flap leaves
// only its own name's history.
func TestFlapHistoryIsPruned(t *testing.T) {
	clk := newMemClock()
	rt := newMembershipRouter(t, clk, newStubFleet(), RouterConfig{})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range 1000 {
		rt.recordFlapLocked(fmt.Sprintf("pod-%d", i))
	}
	if len(rt.flaps) != 1000 {
		t.Fatalf("%d flap histories for 1000 names inside the window", len(rt.flaps))
	}
	clk.advance(flapWindow)
	rt.recordFlapLocked("pod-new")
	if len(rt.flaps) != 1 || rt.flapCountLocked("pod-new") != 1 {
		t.Fatalf("%d flap histories after the window passed, want only pod-new's", len(rt.flaps))
	}
}

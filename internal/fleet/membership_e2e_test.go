package fleet

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// TestMembershipE2E drives the full self-healing membership lifecycle
// under live load and the race detector: a router boots with zero
// replicas, three agents join over the registration plane, one leaves
// gracefully (coordinated drain), one dies ungracefully (lease expiry
// ejects it), and a router restart rebuilds the fleet from its snapshot —
// with zero lost requests throughout.
func TestMembershipE2E(t *testing.T) {
	clk := newMemClock()
	fl := newStubFleet()
	statePath := filepath.Join(t.TempDir(), "membership.json")
	rt := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: statePath})
	ts := httptest.NewServer(NewHandler(rt, HandlerConfig{AdminToken: "tok"}))
	t.Cleanup(ts.Close)

	// Stand in for the background prober (newTestRouter disables it so
	// tests control probe timing; here we want it live and concurrent).
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-probeCtx.Done():
				return
			case <-tick.C:
				rt.ProbeOnce()
			}
		}
	}()

	// Three replica agents, registering over the real HTTP plane.
	type member struct {
		agent  *Agent
		cancel context.CancelFunc
		done   chan struct{}
	}
	start := func(name string) *member {
		agent, err := NewAgent(AgentConfig{
			RouterURL:    ts.URL,
			Name:         name,
			AdvertiseURL: "http://" + name + ":8081",
			AdminToken:   "tok",
			Heartbeat:    5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		m := &member{agent: agent, cancel: cancel, done: make(chan struct{})}
		go func() { agent.Run(ctx); close(m.done) }()
		return m
	}
	healthyIs := func(n int) func() bool {
		return func() bool { return rt.View().Healthy == n }
	}

	m1, m2 := start("m1"), start("m2")
	defer m1.cancel()
	defer m2.cancel()
	waitFor(t, healthyIs(2), "initial pair admitted")

	// Continuous load for the rest of the scenario: every request must
	// succeed — drains and ejections may move rows, never lose them.
	var sent, lost atomic.Int64
	loadCtx, stopLoad := context.WithCancel(context.Background())
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for i := 0; loadCtx.Err() == nil; i++ {
			rows := testRows(4 + i%3)
			out, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Rows: rows})
			if err != nil {
				lost.Add(int64(len(rows)))
				t.Errorf("request lost during membership churn: %v", err)
				continue
			}
			if out.MembershipEpoch == 0 {
				t.Error("routed response missing its membership epoch")
			}
			sent.Add(int64(len(rows)))
		}
	}()

	// Join mid-run: a third agent announces itself under load.
	m3 := start("m3")
	defer m3.cancel()
	waitFor(t, healthyIs(3), "mid-run join admitted")

	// Graceful exit: m2 stops heartbeating and runs the coordinated-drain
	// handshake; the router confirms only after its in-flight rows finish.
	m2.cancel()
	<-m2.done
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	resp, err := m2.agent.Drain(dctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Drained || resp.PendingRows != 0 {
		t.Fatalf("graceful drain = %+v", resp)
	}
	waitFor(t, healthyIs(2), "drained member left the ring")

	// Ungraceful exit: m1's process "dies" — transport down, heartbeats
	// stop. Advance the fake clock past the lease TTL in steps small
	// enough that the survivor's live heartbeats keep renewing between
	// steps, and the router ejects m1 the hard way.
	m1.cancel()
	<-m1.done
	fl.get("m1").setDown(true)
	for i := 0; i < 8; i++ {
		clk.advance(500 * time.Millisecond)
		// Before the next step, wait until the survivor's live heartbeats
		// have re-renewed its lease against the advanced clock — a blind
		// sleep would let a scheduler stall expire m3 alongside m1.
		waitFor(t, func() bool {
			rv, ok := memberView(t, rt, "m3")
			return ok && rv.LeaseRemainingMs > 2000
		}, "survivor lease renewal between clock steps")
	}
	waitFor(t, func() bool {
		_, ok := memberView(t, rt, "m1")
		return !ok
	}, "dead member ejected by lease expiry")

	stopLoad()
	<-loadDone
	stopProbes()
	<-probesDone

	if lost.Load() != 0 {
		t.Fatalf("%d rows lost across drain and lease expiry", lost.Load())
	}
	if sent.Load() == 0 {
		t.Fatal("load loop never completed a request")
	}
	// Conservation: every row the clients sent was served by exactly one
	// replica (failover re-dispatches, never duplicates or drops).
	served := int64(0)
	for _, name := range []string{"m1", "m2", "m3"} {
		served += int64(fl.get(name).rowsServed())
	}
	if served != sent.Load() {
		t.Fatalf("replicas served %d rows, clients sent %d", served, sent.Load())
	}

	// Router restart: a fresh router on the same state path rebuilds its
	// membership from the snapshot. Only m3 is still leased (m1 expired,
	// m2 drained), it comes back quarantined, and the first probe admits
	// it — no re-registration round trip needed.
	if snap := readSnapshot(t, statePath); snap == nil || len(snap.Members) != 1 || snap.Members[0].Name != "m3" {
		t.Fatalf("snapshot after churn = %+v, want just m3", snap)
	}
	rt2 := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: statePath})
	if n := rt2.memlog.Count(obs.MemberEventSnapshotRestore); n != 1 {
		t.Fatalf("restart restored %d members, want 1", n)
	}
	if rv, ok := memberView(t, rt2, "m3"); !ok || rv.State != MemberJoining || rv.InRing {
		t.Fatalf("restored member = %+v, want joining off-ring", rv)
	}
	rt2.ProbeOnce()
	out, err := rt2.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: []float64{9, 1}})
	if err != nil {
		t.Fatalf("restarted router cannot route: %v", err)
	}
	if len(out.Replicas) != 1 || out.Replicas[0].Replica != "m3" {
		t.Fatalf("restarted router routed to %+v", out.Replicas)
	}
}

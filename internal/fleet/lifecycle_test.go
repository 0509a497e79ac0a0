package fleet

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"iotaxo/internal/obs"
)

// memberFamilies are the series every member has while it is one.
var memberFamilies = []string{
	"iorouter_replica_requests_total", "iorouter_replica_rows_total", "iorouter_replica_errors_total",
	"ioserve_breaker_state", "ioserve_breaker_trips_total", "ioserve_breaker_failures_total",
}

// routerScrape parses the router's GET /metrics into each family's
// samples by member (its replica or breaker name label) and the unlabelled
// scalars.
func routerScrape(t *testing.T, rt *Router) (perMember map[string]map[string]float64, scalars map[string]float64) {
	t.Helper()
	fams, err := obs.ParsePromText([]byte(scrapeHandler(t, Handler(rt))))
	if err != nil {
		t.Fatal(err)
	}
	perMember, scalars = make(map[string]map[string]float64), make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Labels == "" {
				scalars[s.Name] = s.Value
				continue
			}
			member, ok := obs.LabelValue(s.Labels, "replica")
			if !ok {
				member, ok = obs.LabelValue(s.Labels, "name")
			}
			if !ok {
				continue
			}
			if perMember[member] == nil {
				perMember[member] = make(map[string]float64)
			}
			perMember[member][s.Name] = s.Value
		}
	}
	return perMember, scalars
}

// TestMemberLifecycle follows a boot member, a registered one and one
// restored from a snapshot through both ways out on the fake clock. While a
// member, each has its dispatch counters and breaker series; once it has
// deregistered or its lease has expired, no series names it; and after
// every step the ring gauges are what View reports.
func TestMemberLifecycle(t *testing.T) {
	members := []string{"boot", "registered", "restored"}
	for _, exit := range []string{"deregister", "lease expiry"} {
		t.Run(exit, func(t *testing.T) {
			clk := newMemClock()
			fl := newStubFleet()
			path := filepath.Join(t.TempDir(), "membership.json")
			first := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: path})
			if _, err := first.Register(RegisterRequest{Name: "restored", BaseURL: "http://restored"}); err != nil {
				t.Fatal(err)
			}
			rt := newMembershipRouter(t, clk, fl, RouterConfig{StatePath: path}, fl.get("boot"))

			check := func(step string, present ...string) map[string]map[string]float64 {
				t.Helper()
				perMember, scalars := routerScrape(t, rt)
				v := rt.View()
				if scalars["iorouter_ring_remaps_total"] != float64(v.Epoch) || scalars["iorouter_replicas_healthy"] != float64(v.Healthy) {
					t.Fatalf("%s: remaps %v healthy %v, view epoch %d healthy %d", step,
						scalars["iorouter_ring_remaps_total"], scalars["iorouter_replicas_healthy"], v.Epoch, v.Healthy)
				}
				want := make(map[string]bool)
				for _, name := range present {
					want[name] = true
					for _, fam := range memberFamilies {
						if _, ok := perMember[name][fam]; !ok {
							t.Fatalf("%s: member %s has no %s series", step, name, fam)
						}
					}
				}
				for _, name := range members {
					if !want[name] && perMember[name] != nil {
						t.Fatalf("%s: departed %s still has series %v", step, name, perMember[name])
					}
				}
				return perMember
			}

			check("boot", "boot", "restored")
			if _, err := rt.Register(RegisterRequest{Name: "registered", BaseURL: "http://registered"}); err != nil {
				t.Fatal(err)
			}
			check("register", members...)
			rt.ProbeOnce() // admits the registered and the restored member
			check("admit", members...)
			// The probe scraped every member; the age of that scrape is read
			// on the router's clock.
			clk.advance(2 * time.Second)
			for _, name := range members {
				if age := check("scrape age", members...)[name]["iorouter_replica_scrape_age_seconds"]; age != 2 {
					t.Fatalf("%s scrape age %v s, want 2 on the fake clock", name, age)
				}
			}

			// The counters are each member's own: rows match what its
			// replica served, and a fault lands on the member that faulted.
			if _, err := rt.Route(context.Background(), distinctRows(64)); err != nil {
				t.Fatal(err)
			}
			perMember := check("route", members...)
			for _, name := range members {
				got := perMember[name]
				if served := fl.get(name).rowsServed(); got["iorouter_replica_rows_total"] != float64(served) || served == 0 ||
					got["iorouter_replica_requests_total"] != 1 || got["iorouter_replica_errors_total"] != 0 {
					t.Fatalf("%s counters %v, its replica served %d rows", name, got, served)
				}
			}
			fl.get("registered").setFail(errors.New("stub registered: boom"))
			if _, err := rt.Route(context.Background(), distinctRows(64)); err != nil {
				t.Fatal(err) // failed over
			}
			fl.get("registered").setFail(nil)
			perMember = check("fault", members...)
			for _, name := range members {
				want := 0.0
				if name == "registered" {
					want = 1
				}
				if got := perMember[name]["iorouter_replica_errors_total"]; got != want {
					t.Fatalf("%s errors_total = %v, want %v", name, got, want)
				}
			}

			switch exit {
			case "deregister":
				for i, name := range members {
					if _, err := rt.Deregister(context.Background(), name); err != nil {
						t.Fatal(err)
					}
					check("deregister "+name, members[i+1:]...)
				}
			case "lease expiry":
				// No heartbeats for a full TTL: the leased members expire,
				// the boot member has no lease to lose.
				clk.advance(4 * time.Second)
				rt.ProbeOnce()
				check("expiry", "boot")
				if rv, ok := memberView(t, rt, "boot"); !ok || !rv.InRing || rv.Leased {
					t.Fatalf("boot member after lease expiry = %+v, %v", rv, ok)
				}
				if _, err := rt.Deregister(context.Background(), "boot"); err != nil {
					t.Fatal(err)
				}
				check("deregister boot")
			}
		})
	}
}

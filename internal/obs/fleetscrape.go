package obs

import (
	"sort"
	"sync"
	"time"
)

// FleetScrape caches the most recent metric families from every fleet
// replica on one scrape cadence and serves the router's /metrics from that
// cache: per-replica liveness/staleness gauges and the counters and
// histograms summed fleet-wide.
type FleetScrape struct {
	// Now is injectable for staleness tests; defaults to time.Now.
	Now func() time.Time

	mu      sync.Mutex
	targets map[string]*scrapeTarget
	names   []string // sorted target names for deterministic rendering
}

type scrapeTarget struct {
	families []PromFamily
	lastOK   time.Time
	up       bool
}

// NewFleetScrape returns a scraper tracking the given replica names. All
// targets start down with no cached exposition.
func NewFleetScrape(names []string) *FleetScrape {
	fs := &FleetScrape{targets: make(map[string]*scrapeTarget, len(names))}
	for _, n := range names {
		fs.targets[n] = &scrapeTarget{}
		fs.names = append(fs.names, n)
	}
	sort.Strings(fs.names)
	return fs
}

func (fs *FleetScrape) now() time.Time {
	if fs.Now != nil {
		return fs.Now()
	}
	return time.Now()
}

// Record caches one successful scrape of target. Unknown targets are
// added (replicas can appear after boot).
func (fs *FleetScrape) Record(target string, families []PromFamily) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t := fs.target(target)
	t.families = families
	t.lastOK = fs.now()
	t.up = true
}

// MarkDown records a failed scrape of target: the target's up gauge drops
// but its last-good exposition stays cached so staleness is observable.
func (fs *FleetScrape) MarkDown(target string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.target(target).up = false
}

// Remove forgets a target entirely: its up/scrape-age series disappear
// from the rendered view and its cached exposition leaves the merge. This
// is for members that *deregistered* (drained away or lease-expired) —
// a down-but-still-registered replica keeps its series via MarkDown so
// staleness stays observable, but a departed one must not haunt dashboards
// as a permanently-down ghost.
func (fs *FleetScrape) Remove(target string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.targets[target]; !ok {
		return
	}
	delete(fs.targets, target)
	for i, n := range fs.names {
		if n == target {
			fs.names = append(fs.names[:i], fs.names[i+1:]...)
			break
		}
	}
}

// target returns the entry for name, creating (and indexing) it if new.
// Callers hold fs.mu.
func (fs *FleetScrape) target(name string) *scrapeTarget {
	t, ok := fs.targets[name]
	if !ok {
		t = &scrapeTarget{}
		fs.targets[name] = t
		fs.names = append(fs.names, name)
		sort.Strings(fs.names)
	}
	return t
}

// Collect appends the fleet view: per-replica up and scrape-age gauges,
// then every counter/histogram family summed across up replicas with the
// family HELP prefixed "Fleet-aggregated:" so a dashboard can tell merged
// series from the router's own.
func (fs *FleetScrape) Collect(dst []PromFamily) []PromFamily {
	up := PromFamily{Name: "iorouter_replica_up", Help: "Whether the most recent metrics scrape of the replica succeeded.", Type: "gauge"}
	age := PromFamily{Name: "iorouter_replica_scrape_age_seconds", Help: "Seconds since the last successful metrics scrape of the replica (-1 before the first).", Type: "gauge"}
	var merged [][]PromFamily
	fs.mu.Lock()
	now := fs.now()
	for _, name := range fs.names {
		t := fs.targets[name]
		u, a := 0.0, -1.0
		if t.up {
			u = 1
		}
		if !t.lastOK.IsZero() {
			a = now.Sub(t.lastOK).Seconds()
		}
		up.Add(Labels("replica", name), u)
		age.Add(Labels("replica", name), a)
		if t.up && t.families != nil {
			merged = append(merged, t.families)
		}
	}
	fs.mu.Unlock()
	dst = append(dst, up, age)
	for _, f := range MergeFamilies(merged...) {
		if f.Help != "" {
			f.Help = "Fleet-aggregated: " + f.Help
		} else {
			f.Help = "Fleet-aggregated."
		}
		dst = append(dst, f)
	}
	return dst
}

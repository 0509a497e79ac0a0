package obs

import (
	"strings"
	"testing"
	"time"
)

// up reads target's iorouter_replica_up gauge off the scraper's view.
func up(fs *FleetScrape, target string) bool {
	for _, s := range fs.Collect(nil)[0].Samples {
		if s.Labels == Labels("replica", target) {
			return s.Value == 1
		}
	}
	return false
}

func TestFleetScrapeUpAndStaleness(t *testing.T) {
	now := time.Unix(1000, 0)
	fs := NewFleetScrape([]string{"r1", "r2"})
	fs.Now = func() time.Time { return now }

	fs.Record("r1", sampleFamilies(t))
	if !up(fs, "r1") || up(fs, "r2") {
		t.Fatalf("up state wrong: r1=%v r2=%v", up(fs, "r1"), up(fs, "r2"))
	}

	now = now.Add(7 * time.Second)
	out := render(t, fs.Collect(nil))
	for _, want := range []string{
		`iorouter_replica_up{replica="r1"} 1`,
		`iorouter_replica_up{replica="r2"} 0`,
		`iorouter_replica_scrape_age_seconds{replica="r1"} 7`,
		`iorouter_replica_scrape_age_seconds{replica="r2"} -1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// A failed scrape drops up but keeps the last good scrape, so its age
	// keeps growing instead of resetting to -1.
	fs.MarkDown("r1")
	if up(fs, "r1") {
		t.Fatal("r1 still up after MarkDown")
	}
	now = now.Add(time.Second)
	if out := render(t, fs.Collect(nil)); !strings.Contains(out, `iorouter_replica_scrape_age_seconds{replica="r1"} 8`) {
		t.Fatalf("last good scrape lost after MarkDown:\n%s", out)
	}
}

func TestFleetScrapeMergedFamilies(t *testing.T) {
	fs := NewFleetScrape([]string{"r1", "r2"})
	fs.Record("r1", sampleFamilies(t))
	fs.Record("r2", sampleFamilies(t))
	out := render(t, fs.Collect(nil))
	if !strings.Contains(out, "ioserve_requests_total 20") {
		t.Errorf("merged counter missing/wrong in:\n%s", out)
	}
	if !strings.Contains(out, `ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"} 6`) {
		t.Errorf("merged histogram bucket missing/wrong in:\n%s", out)
	}
	if !strings.Contains(out, "# HELP ioserve_requests_total Fleet-aggregated:") {
		t.Errorf("merged HELP not marked fleet-aggregated in:\n%s", out)
	}
	// Down replicas are excluded from the merge.
	fs.MarkDown("r2")
	if out := render(t, fs.Collect(nil)); !strings.Contains(out, "ioserve_requests_total 10") {
		t.Errorf("down replica still in merge:\n%s", out)
	}
}

func TestFleetScrapeLateTarget(t *testing.T) {
	fs := NewFleetScrape(nil)
	// Unknown target auto-registers on Record and joins the merge.
	fs.Record("late", sampleFamilies(t))
	if !up(fs, "late") {
		t.Fatal("late target not up after Record")
	}
	if out := render(t, fs.Collect(nil)); !strings.Contains(out, "ioserve_requests_total 10") {
		t.Fatalf("late target not merged:\n%s", out)
	}
	if up(fs, "never") {
		t.Fatal("unknown target reported up")
	}
}

package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleExposition = `# HELP ioserve_requests_total Total predict requests.
# TYPE ioserve_requests_total counter
ioserve_requests_total 10
# HELP ioserve_stage_latency_seconds Stage latency.
# TYPE ioserve_stage_latency_seconds histogram
ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"} 3
ioserve_stage_latency_seconds_bucket{stage="evaluate",le="+Inf"} 5
ioserve_stage_latency_seconds_sum{stage="evaluate"} 0.02
ioserve_stage_latency_seconds_count{stage="evaluate"} 5
# HELP ioserve_admission_inflight In-flight admitted requests.
# TYPE ioserve_admission_inflight gauge
ioserve_admission_inflight 2
ioserve_active_version{system="theta"} 4
`

// sampleFamilies is sampleExposition as a replica hands it to the scraper.
func sampleFamilies(t *testing.T) []PromFamily {
	t.Helper()
	fams, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// render is what a /metrics handler answers for fams.
func render(t *testing.T, fams []PromFamily) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteFamilies(&sb, fams); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestParsePromText(t *testing.T) {
	families, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PromFamily{}
	for _, f := range families {
		byName[f.Name] = f
	}
	counter := byName["ioserve_requests_total"]
	if counter.Type != "counter" || len(counter.Samples) != 1 || counter.Samples[0].Value != 10 {
		t.Fatalf("counter family parsed wrong: %+v", counter)
	}
	hist := byName["ioserve_stage_latency_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram type = %q", hist.Type)
	}
	// _bucket/_sum/_count all land under the base family.
	if len(hist.Samples) != 4 {
		t.Fatalf("histogram samples = %d, want 4: %+v", len(hist.Samples), hist.Samples)
	}
	// An undeclared series becomes its own untyped family.
	if f := byName["ioserve_active_version"]; f.Type != "untyped" || len(f.Samples) != 1 {
		t.Fatalf("undeclared series family: %+v", f)
	}
	if f := byName["ioserve_admission_inflight"]; f.Type != "gauge" || f.Samples[0].Value != 2 {
		t.Fatalf("gauge family: %+v", f)
	}
}

func TestParsePromTextMalformed(t *testing.T) {
	for _, body := range []string{
		"ioserve_requests_total notanumber\n",
		`broken{le="0.1" 3` + "\n",
		`a b{x="1"} 0` + "\n",
		`a=b{x="1"} 0` + "\n",
	} {
		if _, err := ParsePromText([]byte(body)); err == nil {
			t.Errorf("ParsePromText(%q) did not error", body)
		}
	}
}

func TestLabelValue(t *testing.T) {
	labels := `{system="theta",le="0.005",msg="a,b"}`
	if v, ok := LabelValue(labels, "le"); !ok || v != "0.005" {
		t.Fatalf("le = %q, %v", v, ok)
	}
	if v, ok := LabelValue(labels, "msg"); !ok || v != "a,b" {
		t.Fatalf("quoted comma not honored: %q, %v", v, ok)
	}
	if _, ok := LabelValue(labels, "absent"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestMergeFamiliesSumsCountersAndHistograms(t *testing.T) {
	a, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFamilies(a, b)
	byName := map[string]PromFamily{}
	for _, f := range merged {
		byName[f.Name] = f
	}
	if f := byName["ioserve_requests_total"]; f.Samples[0].Value != 20 {
		t.Fatalf("merged counter = %g, want 20", f.Samples[0].Value)
	}
	hist := byName["ioserve_stage_latency_seconds"]
	for _, s := range hist.Samples {
		want := map[string]float64{
			`ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"}`: 6,
			`ioserve_stage_latency_seconds_bucket{stage="evaluate",le="+Inf"}`:  10,
			`ioserve_stage_latency_seconds_sum{stage="evaluate"}`:               0.04,
			`ioserve_stage_latency_seconds_count{stage="evaluate"}`:             10,
		}[s.Name+s.Labels]
		if s.Value != want {
			t.Errorf("%s%s = %g, want %g", s.Name, s.Labels, s.Value, want)
		}
	}
	// Gauges and untyped series must not merge: summing point-in-time
	// values across processes is not meaningful.
	if _, ok := byName["ioserve_admission_inflight"]; ok {
		t.Fatal("gauge family leaked into the merge")
	}
	if _, ok := byName["ioserve_active_version"]; ok {
		t.Fatal("untyped family leaked into the merge")
	}
}

func TestMergeFamiliesDropsIncompatibleBuckets(t *testing.T) {
	a, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
`))
	b, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{le="0.25"} 1
h_bucket{le="+Inf"} 2
`))
	merged := MergeFamilies(a, b)
	for _, f := range merged {
		if f.Name == "h" {
			t.Fatalf("incompatible bucket ladders merged anyway: %+v", f)
		}
	}
}

func TestMergeFamiliesToleratesExtraLabelSets(t *testing.T) {
	// Replica B exposes an extra stage; its ladder for the shared stage
	// matches, so the family still merges.
	a, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{stage="evaluate",le="0.1"} 1
h_bucket{stage="evaluate",le="+Inf"} 1
`))
	b, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{stage="evaluate",le="0.1"} 2
h_bucket{stage="evaluate",le="+Inf"} 2
h_bucket{stage="guard",le="0.1"} 5
h_bucket{stage="guard",le="+Inf"} 5
`))
	merged := MergeFamilies(a, b)
	if len(merged) != 1 {
		t.Fatalf("family did not merge: %+v", merged)
	}
	var evalBucket, guardBucket float64
	for _, s := range merged[0].Samples {
		if strings.Contains(s.Labels, `stage="evaluate"`) && strings.Contains(s.Labels, `le="0.1"`) {
			evalBucket = s.Value
		}
		if strings.Contains(s.Labels, `stage="guard"`) && strings.Contains(s.Labels, `le="0.1"`) {
			guardBucket = s.Value
		}
	}
	if evalBucket != 3 || guardBucket != 5 {
		t.Fatalf("evaluate=%g (want 3) guard=%g (want 5)", evalBucket, guardBucket)
	}
}

// sameFamilies compares families field by field, NaN equal to NaN.
func sameFamilies(a, b []PromFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Help != b[i].Help || a[i].Type != b[i].Type || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j, s := range a[i].Samples {
			o := b[i].Samples[j]
			if s.Name != o.Name || s.Labels != o.Labels || s.Value != o.Value && !(math.IsNaN(s.Value) && math.IsNaN(o.Value)) {
				return false
			}
		}
	}
	return true
}

// FuzzPromRoundTrip pins the two routes metric families take to the
// router: families a collector builds survive rendering and parsing
// (label values included, however they need escaping), and a golden
// /metrics body parses to families that render back to the same bytes —
// any other body at least reaches a fixed point after one round.
func FuzzPromRoundTrip(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "fleet", "testdata", "golden", "*.metrics"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden bodies to seed from (%v)", err)
	}
	golden := map[string]bool{}
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		golden[string(b)] = true
		f.Add(b, "theta", 0.25)
	}
	f.Add([]byte(sampleExposition), "a\\b\"c\n\t", math.Inf(1))
	f.Add([]byte("x 1\n"), `\`, math.NaN())
	f.Fuzz(func(t *testing.T, body []byte, label string, v float64) {
		hist := PromFamily{Name: "h_seconds", Help: "A histogram.", Type: "histogram", Samples: []PromSample{
			{Name: "h_seconds_bucket", Labels: Labels("system", label, "le", "+Inf"), Value: v},
			{Name: "h_seconds_sum", Labels: Labels("system", label), Value: v},
			{Name: "h_seconds_count", Labels: Labels("system", label), Value: v},
		}}
		gauge := PromFamily{Name: "y", Help: "A labelled gauge.", Type: "gauge"}
		gauge.Add(Labels("system", label, "role", "canary"), v)
		fams := []PromFamily{Scalar("x_total", "A counter.", "counter", v), gauge, hist}
		back, err := ParsePromText([]byte(render(t, fams)))
		if err != nil || !sameFamilies(back, fams) {
			t.Fatalf("families did not survive the round trip (%v):\n%+v\n%+v", err, fams, back)
		}
		if got, ok := LabelValue(back[1].Samples[0].Labels, "system"); !ok || got != label {
			t.Fatalf("label value %q came back as %q", label, got)
		}

		parsed, err := ParsePromText(body)
		if err != nil {
			return
		}
		once := render(t, parsed)
		if golden[string(body)] && once != string(body) {
			t.Fatalf("golden body re-rendered differently:\n%s", once)
		}
		again, err := ParsePromText([]byte(once))
		if err != nil || render(t, again) != once {
			t.Fatalf("rendering is not a fixed point (%v):\n%s", err, once)
		}
	})
}

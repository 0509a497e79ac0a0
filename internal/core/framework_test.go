package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"iotaxo/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/framework_theta3000.golden from what RunFramework answers now")

// thetaFramework is the one RunFramework run the framework tests share:
// FastConfig over a ThetaLike(3000) system, ~5 s.
var thetaFramework = sync.OnceValues(func() (*FrameworkResult, error) {
	m, err := system.Generate(system.ThetaLike(3000))
	if err != nil {
		return nil, err
	}
	f, err := m.Frame()
	if err != nil {
		return nil, err
	}
	return RunFramework("theta-test", f, FastConfig())
})

func runThetaFramework(t *testing.T) *FrameworkResult {
	t.Helper()
	if testing.Short() {
		t.Skip("framework end-to-end test trains many models")
	}
	res, err := thetaFramework()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunFrameworkEndToEnd(t *testing.T) {
	res := runThetaFramework(t)

	// Structural sanity of the five steps.
	if res.Baseline.N == 0 || res.Baseline.MedianAbsPct <= 0 {
		t.Fatalf("baseline report empty: %+v", res.Baseline)
	}
	if res.Floor.Sets == 0 || res.Floor.FloorPct <= 0 {
		t.Fatalf("duplicate floor missing: %+v", res.Floor)
	}
	// The floor is a lower bound: the baseline cannot beat it by much.
	if res.Baseline.MedianAbsPct < res.Floor.FloorPct*0.5 {
		t.Errorf("baseline %.2f%% implausibly below floor %.2f%%",
			100*res.Baseline.MedianAbsPct, 100*res.Floor.FloorPct)
	}
	// Tuning never makes the test error dramatically worse.
	if res.Tuned.MedianAbsPct > res.Baseline.MedianAbsPct*1.5 {
		t.Errorf("tuned %.2f%% much worse than baseline %.2f%%",
			100*res.Tuned.MedianAbsPct, 100*res.Baseline.MedianAbsPct)
	}
	// The golden (start-time) model should be at least as good as tuned,
	// within noise.
	if res.Golden.MedianAbsPct > res.Tuned.MedianAbsPct*1.25 {
		t.Errorf("golden %.2f%% worse than tuned %.2f%%",
			100*res.Golden.MedianAbsPct, 100*res.Tuned.MedianAbsPct)
	}
	// Theta collects no LMT.
	if res.WithLMT != nil {
		t.Error("theta-like run produced an LMT model")
	}
	// Noise bounds are positive and ordered.
	if res.Noise.SigmaLog <= 0 || res.Noise.Bound95Pct <= res.Noise.Bound68Pct {
		t.Errorf("noise estimate malformed: %+v", res.Noise)
	}
	// Breakdown shares are sane.
	b := res.Breakdown
	for name, v := range map[string]float64{
		"app":      b.AppModeling,
		"tuning":   b.TuningRemoved,
		"system":   b.SystemModeling,
		"ood":      b.OoD,
		"aleatory": b.Aleatory,
	} {
		if v < 0 || v > 1 {
			t.Errorf("breakdown share %s = %v out of [0,1]", name, v)
		}
	}
	if b.BaselinePct != res.Baseline.MedianAbsPct {
		t.Error("breakdown baseline mismatch")
	}
	// OoD step produced flags for the test split.
	if len(res.OoD.Flags) == 0 {
		t.Error("OoD step produced no flags")
	}
}

func TestFrameworkConfigs(t *testing.T) {
	for _, cfg := range []FrameworkConfig{PaperConfig(), FastConfig()} {
		if cfg.TrainFrac+cfg.ValFrac >= 1 {
			t.Error("split fractions leave no test data")
		}
		if len(cfg.GridTrees) == 0 || len(cfg.GridDepths) == 0 {
			t.Error("empty tuning grid")
		}
		if cfg.NASPopulation < 2 || cfg.EnsembleSize < 2 {
			t.Error("NAS budgets too small for an ensemble")
		}
	}
}

// TestRunFrameworkGolden pins every scalar of the shared run bit for bit:
// the breakdown, the baseline, tuned and golden error reports, the
// duplicate floor, the OoD attribution and the noise estimate. A change
// that only restructures how the litmus tests are computed must leave the
// file as it is; rerun with -update only when the numbers are meant to move.
func TestRunFrameworkGolden(t *testing.T) {
	res := runThetaFramework(t)
	got := strings.Join(scalarLines("", reflect.ValueOf(*res), nil), "\n") + "\n"
	const path = "testdata/framework_theta3000.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			t.Fatalf("%s line %d moved (rerun with -update only if that was intended)\n got %q\nwant %q",
				path, i+1, line, want[min(i, len(want)-1)])
		}
	}
	if n := strings.Count(got, "\n"); n != strings.Count(string(raw), "\n") {
		t.Fatalf("%s: %d lines now, %d pinned", path, n, strings.Count(string(raw), "\n"))
	}
}

// scalarLines appends one "path value" line for each scalar reachable from
// v: a float as its bit pattern and its value, a slice (per-row data) as
// its length, a map in key order.
func scalarLines(path string, v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, fmt.Sprintf("%s %016x %v", path, math.Float64bits(v.Float()), v.Float()))
	case reflect.Slice:
		return append(out, fmt.Sprintf("%s len %d", path, v.Len()))
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, path+" nil")
		}
		return scalarLines(path, v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = scalarLines(path+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
		return out
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			out = scalarLines(path+"["+k.String()+"]", v.MapIndex(k), out)
		}
		return out
	}
	return append(out, fmt.Sprintf("%s %v", path, v))
}

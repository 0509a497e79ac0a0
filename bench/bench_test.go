package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"iotaxo/internal/gbt"
	"iotaxo/internal/serve"
)

// None of these tests asserts on wall-clock time.

// testFixture is trained once per test binary.
var testFixture struct {
	dir  string
	pool *pool
	ref  *gbt.Model
}

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bench-fixture-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		frame, err := fixtureFrame()
		if err != nil {
			panic(err)
		}
		if err := trainFixture(frame, dir); err != nil {
			panic(err)
		}
		p, err := newPool(frame)
		if err != nil {
			panic(err)
		}
		reg, err := serve.LoadRegistry(dir)
		if err != nil {
			panic(err)
		}
		mv, err := reg.Get(fixtureSystem, 0)
		if err != nil {
			panic(err)
		}
		testFixture.dir, testFixture.pool, testFixture.ref = dir, p, mv.Model
		return m.Run()
	}())
}

// bodies renders the first n requests of a stream.
func bodies(sh shape, seed uint64, lane, n int) [][]byte {
	s := newStream(testFixture.pool, sh, seed, lane)
	out := make([][]byte, n)
	for i := range out {
		out[i] = testFixture.pool.appendBody(nil, s.nextRefs(nil), sh.single)
	}
	return out
}

func TestStreamIsAFunctionOfSeedAndLane(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(w.shape, 7, 0, 200), bodies(w.shape, 7, 0, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed and lane gave different request streams", w.name)
		}
		if other := bodies(w.shape, 8, 0, 200); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		if other := bodies(w.shape, 7, 1, 200); reflect.DeepEqual(a, other) {
			t.Errorf("%s: lanes 0 and 1 gave the same request stream", w.name)
		}
	}
}

func TestAssembledBodyIsJSONMarshalOfTheRows(t *testing.T) {
	p := testFixture.pool
	for _, w := range workloads {
		s := newStream(p, w.shape, 3, 0)
		var buf rowBuf
		for i := 0; i < 50; i++ {
			refs := s.nextRefs(nil)
			rows := buf.fill(p, refs)
			req := serve.PredictRequest{System: fixtureSystem, Rows: rows}
			if w.shape.single {
				req = serve.PredictRequest{System: fixtureSystem, Row: rows[0]}
			}
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			got := p.appendBody(nil, refs, w.shape.single)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d: assembled body differs from json.Marshal\n got %.120s\nwant %.120s", w.name, i, got, want)
			}
			var back serve.PredictRequest
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("%s request %d: body does not decode to the rows it was built from", w.name, i)
			}
		}
	}
}

func TestUniqueStreamNeverRepeatsARow(t *testing.T) {
	p := testFixture.pool
	const rows = 200000
	seen := make(map[uint64]rowRef, rows)
	row := make([]float64, len(p.rows[0]))
	for lane := 0; lane < numCallers; lane++ {
		s := newStream(p, shape{batch: 16}, 5, lane)
		for n := 0; n < rows/numCallers; n += 16 {
			for _, r := range s.nextRefs(nil) {
				p.fill(row, r)
				key := serve.HashKey(fixtureSystem, 1, row)
				if prev, dup := seen[key]; dup {
					t.Fatalf("row %+v repeats %+v", r, prev)
				}
				seen[key] = r
			}
		}
	}
}

func TestDupStreamReplaysTheHotSet(t *testing.T) {
	sh := shape{batch: 16, dup: 0.8}
	s := newStream(testFixture.pool, sh, 5, 0)
	hot, total := 0, 0
	for i := 0; i < 2000; i++ {
		for _, r := range s.nextRefs(nil) {
			total++
			if r.ctr <= hotSetSize {
				hot++
			}
		}
	}
	if share := float64(hot) / float64(total); share < 0.78 || share > 0.82 {
		t.Errorf("hot share %.3f, want 0.80", share)
	}
}

func TestFastQuartile(t *testing.T) {
	perm := func(n int) []float64 { // 1..n, shuffled deterministically
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i*7)%n + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n            int
		lower, upper float64 // the pick when lower / higher is better
	}{{12, 3, 10}, {10, 3, 8}, {8, 2, 7}, {4, 1, 4}, {1, 1, 1}} {
		if got := fastQuartile(perm(tc.n), false); got != tc.lower {
			t.Errorf("n=%d lower-is-better: got %v, want %v", tc.n, got, tc.lower)
		}
		if got := fastQuartile(perm(tc.n), true); got != tc.upper {
			t.Errorf("n=%d higher-is-better: got %v, want %v", tc.n, got, tc.upper)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestVerifierRejectsOneUlp(t *testing.T) {
	p := testFixture.pool
	v := newVerifier(testFixture.ref, p)
	refs := newStream(p, shape{batch: 4}, 1, 0).nextRefs(nil)
	var buf rowBuf
	want := testFixture.ref.PredictAll(buf.fill(p, refs))
	rep := &reply{preds: make([]serve.PredictionResult, len(refs))}
	for i := range rep.preds {
		rep.preds[i].Log10Throughput = want[i]
	}
	if err := v.check(refs, rep); err != nil {
		t.Fatalf("exact predictions rejected: %v", err)
	}
	rep.preds[2].Log10Throughput = math.Nextafter(want[2], math.Inf(1))
	if err := v.check(refs, rep); err == nil {
		t.Error("a prediction one ulp off the reference was accepted")
	}
	rep.preds[2].Log10Throughput = want[2]
	rep.preds[0], rep.preds[1] = rep.preds[1], rep.preds[0]
	if err := v.check(refs, rep); err == nil {
		t.Error("predictions in the wrong order were accepted")
	}
	rep.preds[0], rep.preds[1] = rep.preds[1], rep.preds[0]
	if err := v.check(refs, &reply{preds: rep.preds[:3]}); err == nil {
		t.Error("a short reply was accepted")
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := newConfig(w, 1, 1, true, testFixture.dir)
			smokeConfig(cfg)
			cfg.outDir = t.TempDir()
			res := run(cfg, testFixture.pool, testFixture.ref)
			if res.err != nil {
				t.Fatal(res.err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, group := range [][]metricDef{endToEnd, perLayer} {
				for _, def := range group {
					v, ok := res.metrics[def.name]
					if !ok || !finite(v) {
						t.Errorf("metric %s: present=%v value=%v", def.name, ok, v)
					}
				}
			}
			if len(res.metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("run emitted %d metrics, the ledger lists %d", len(res.metrics), len(endToEnd)+len(perLayer))
			}
			for _, def := range endToEnd {
				if res.metrics[def.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.name, res.metrics[def.name])
				}
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			rungs := map[string]int{}
			for _, sp := range doc.Spans {
				rungs[sp.Name]++
				if sp.EndNs < sp.StartNs {
					t.Fatalf("span %+v ends before it starts", sp)
				}
			}
			for _, name := range []string{"gbt.flat", "uq.ensemble", "serve.predict", "serve.handler", "serve.http",
				"fleet.route_local", "fleet.route_remote", "fleet.http", "obs.predict_traced"} {
				if rungs[name] == 0 {
					t.Errorf("no %s span in the trace file", name)
				}
			}
		})
	}
}

// TestLedgerMatchesBenchmarkJSON pins the names the binary emits to the
// names BENCHMARK.json declares, and both to the contract's limits.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json has a key the contract does not: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, declared []metric, defs []metricDef, lo, hi int, bounded bool) {
		if len(declared) != len(defs) || len(defs) < lo || len(defs) > hi {
			t.Errorf("%s: %d declared, %d emitted, contract allows %d..%d", kind, len(declared), len(defs), lo, hi)
			return
		}
		for i, d := range declared {
			def := defs[i]
			better := "lower"
			if def.higher {
				better = "higher"
			}
			if d.Name != def.name || d.Unit != def.unit || d.Better != better {
				t.Errorf("%s %d: declared %+v, emitted %+v", kind, i, d, def)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %q (%q): name or unit outside the contract's alphabet", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, 1, 16, true)
	check("per_layer", doc.PerLayer, perLayer, 1, 128, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

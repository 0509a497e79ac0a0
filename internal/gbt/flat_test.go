package gbt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// compile is Compile for a model the test expects to compile.
func compile(t testing.TB, m *Model) *Flat {
	t.Helper()
	fl, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// mostThresholds returns the feature with the most distinct split
// thresholds in m, and their count.
func mostThresholds(m *Model) (feature, count int) {
	seen := make([]map[float64]bool, m.nFeature)
	for _, tr := range m.trees {
		for _, n := range tr.nodes {
			if n.feature < 0 {
				continue
			}
			if seen[n.feature] == nil {
				seen[n.feature] = map[float64]bool{}
			}
			seen[n.feature][n.threshold] = true
			if c := len(seen[n.feature]); c > count {
				feature, count = int(n.feature), c
			}
		}
	}
	return feature, count
}

// stumps hand-builds a two-feature model of n one-split trees, tree k
// splitting feature 0 at k: n distinct thresholds on feature 0.
func stumps(n int) *Model {
	ths := make([]float64, n)
	for k := range ths {
		ths[k] = float64(k)
	}
	return stumpsAt(ths)
}

// stumpsAt hand-builds a model of one-split trees over at least two
// features: one tree for each threshold in ths[f], splitting feature f.
func stumpsAt(ths ...[]float64) *Model {
	p := DefaultParams()
	m := &Model{params: p, bias: 0.5, nFeature: max(2, len(ths)), gain: make([]float64, max(2, len(ths)))}
	for f, fths := range ths {
		m.gain[f] = 1
		for _, v := range fths {
			k := float64(len(m.trees))
			m.trees = append(m.trees, tree{nodes: []node{
				{feature: int32(f), threshold: v, left: 1, right: 2},
				{feature: -1, value: 1 / (k + 3)},
				{feature: -1, value: -1 / (k + 7)},
			}})
		}
	}
	m.params.NumTrees = len(m.trees)
	return m
}

// checkCodes pins the threshold tables Compile built for m: every edges[f]
// is strictly ascending and holds exactly feature f's distinct thresholds,
// and every internal node's cut indexes its own threshold.
func checkCodes(t testing.TB, label string, m *Model, fl *Flat) {
	t.Helper()
	distinct := make([]map[float64]bool, m.nFeature)
	at := 0
	for _, tr := range m.trees {
		for _, n := range tr.nodes {
			if n.feature >= 0 {
				if distinct[n.feature] == nil {
					distinct[n.feature] = map[float64]bool{}
				}
				distinct[n.feature][n.threshold] = true
				e := fl.edges[n.feature]
				if c := int(fl.cut[at]); c >= len(e) || e[c] != n.threshold {
					t.Fatalf("%s: node %d splits feature %d at %v, but its cut %d is outside or off its %d edges", label, at, n.feature, n.threshold, c, len(e))
				}
			}
			at++
		}
	}
	for f, e := range fl.edges {
		if len(e) != len(distinct[f]) {
			t.Fatalf("%s: feature %d has %d edges for %d distinct thresholds", label, f, len(e), len(distinct[f]))
		}
		for i := 1; i < len(e); i++ {
			if !(e[i-1] < e[i]) {
				t.Fatalf("%s: feature %d edges %d and %d are %v, %v: not strictly ascending", label, f, i-1, i, e[i-1], e[i])
			}
		}
	}
}

// ulpChain returns n values one ulp apart, walking from v toward dir.
func ulpChain(v, dir float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i], v = v, math.Nextafter(v, dir)
	}
	return out
}

// TestFlatCompileCodes checks the tables themselves, not just the
// predictions they give, on a trained model and on hand-built ones whose
// thresholds repeat across trees, mix -0 and +0, sit one ulp apart, or all
// hash to the same slot of Compile's numbering table. Each must also predict
// bit-identically to the tree walk on rows at and one ulp either side of
// every threshold, on training rows and on non-finite rows.
func TestFlatCompileCodes(t *testing.T) {
	rows, y := synthWide(600, 12, 3)
	p := TunedBase()
	p.NumTrees, p.MaxDepth = 20, 5
	trained, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	// 255 distinct values whose probes all start at one slot: the longest
	// run the table can hold.
	var collide []float64
	var empty numbering
	home := empty.slot(1)
	for k := 1; len(collide) < 255; k++ {
		if k > 1<<24 {
			t.Fatalf("found %d of 255 thresholds hashing to slot %d", len(collide), home)
		}
		if v := float64(k); empty.slot(v) == home {
			collide = append(collide, v)
		}
	}
	reversed := slices.Clone(collide)
	slices.Reverse(reversed)
	cases := []struct {
		name string
		m    *Model
	}{
		{"trained", trained},
		{"255 stumps", stumps(255)},
		{"repeats and signed zeros", stumpsAt(
			[]float64{0, negZero, 1, 0, negZero, 1, -1, 0},
			[]float64{negZero, negZero, 0.5, 0.5, 0},
			[]float64{3, 3, 3, -3, 3},
		)},
		{"one-ulp chains", stumpsAt(
			append(append(ulpChain(1, 2, 100), ulpChain(0, 1, 50)...), ulpChain(negZero, -1, 50)...),
			append(ulpChain(-1e300, math.Inf(-1), 120), ulpChain(-1e300, math.Inf(-1), 120)...),
		)},
		{"one home slot", stumpsAt(collide, reversed)},
	}
	for _, c := range cases {
		fl := compile(t, c.m)
		checkCodes(t, c.name, c.m, fl)

		var probe [][]float64
		for _, tr := range c.m.trees {
			for _, n := range tr.nodes {
				for _, v := range []float64{n.threshold, math.Nextafter(n.threshold, math.Inf(-1)), math.Nextafter(n.threshold, math.Inf(1))} {
					row := make([]float64, c.m.nFeature)
					for f := range row {
						row[f] = v
					}
					probe = append(probe, row)
				}
			}
		}
		probe = append(probe, rows[:50]...)
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			probe = append(probe, slices.Repeat([]float64{v}, c.m.nFeature))
		}
		for i := range probe {
			probe[i] = probe[i][:c.m.nFeature:c.m.nFeature]
		}
		bitEqual(t, c.name, c.m.PredictAll(probe), fl.PredictAll(probe))
	}
}

// TestFlatCompileThresholdLimit: 255 distinct thresholds on a feature fit
// the walk's uint8 codes and compile to a bit-identical Flat; 256 or more
// are refused with an error naming the feature and the full count, however
// far past the limit it is and however often the thresholds repeat.
func TestFlatCompileThresholdLimit(t *testing.T) {
	var rows [][]float64
	for v := -1.0; v <= 256; v += 0.5 {
		rows = append(rows, []float64{v, -v})
	}
	rows = append(rows, []float64{math.NaN(), 0}, []float64{math.Inf(1), 0}, []float64{math.Inf(-1), 0})

	m := stumps(255)
	fl := compile(t, m)
	bitEqual(t, "255 thresholds", m.PredictAll(rows), fl.PredictAll(rows))

	_, err := stumps(256).Compile()
	if !errors.Is(err, ErrTooManyThresholds) || !strings.Contains(err.Error(), "feature 0 has 256") {
		t.Fatalf("256 thresholds on feature 0: got %v, want ErrTooManyThresholds naming the feature and count", err)
	}
	twice := make([]float64, 600) // 0 up to 299, then back down
	for k := range twice {
		twice[k] = float64(min(k, 599-k))
	}
	for name, m := range map[string]*Model{"300 thresholds": stumps(300), "300 thresholds, each twice": stumpsAt(twice)} {
		if _, err := m.Compile(); !errors.Is(err, ErrTooManyThresholds) || !strings.Contains(err.Error(), "feature 0 has 300,") {
			t.Fatalf("%s on feature 0: got %v, want ErrTooManyThresholds naming the feature and count", name, err)
		}
	}
}

// TestFlatCompileSharedChildren: build accepts any forward links, so a node
// may have several parents. A chain of 64 splits whose two links both lead
// to the next node has 2^64 root-to-leaf paths; Compile must still measure
// its depth in one pass and walk it like the tree walk does.
func TestFlatCompileSharedChildren(t *testing.T) {
	p := DefaultParams()
	p.NumTrees = 1
	var nodes []node
	for i := int32(0); i < 64; i++ {
		nodes = append(nodes, node{feature: i % 2, threshold: float64(i % 3), left: i + 1, right: i + 1})
	}
	m := &Model{params: p, nFeature: 2, gain: []float64{1, 1}, trees: []tree{{nodes: append(nodes, node{feature: -1, value: 2})}}}
	fl := compile(t, m)
	if fl.depth != 64 {
		t.Fatalf("depth %d, want 64", fl.depth)
	}
	rows := [][]float64{{0, 0}, {5, -5}, {math.NaN(), 1}}
	bitEqual(t, "shared children", m.PredictAll(rows), fl.PredictAll(rows))
}

// linkModel hand-builds two trees over two features, each of whose links
// some row of TestFlatWalkBoundsEveryCorruptLink's probe grid takes:
//
//	tree 0 (nodes 0-6): 0: f0<=0 ? 1 : 2; 1: f1<=0 ? 3 : 4; 2: f1<=1 ? 5 : 6
//	tree 1 (nodes 7-11): 7: f1<=0.5 ? 8 : 9; 9: f0<=-1 ? 10 : 11
func linkModel() *Model {
	p := DefaultParams()
	p.NumTrees = 2
	leaf := func(v float64) node { return node{feature: -1, value: v} }
	return &Model{params: p, bias: 0.25, nFeature: 2, gain: []float64{1, 1}, trees: []tree{
		{nodes: []node{
			{feature: 0, threshold: 0, left: 1, right: 2},
			{feature: 1, threshold: 0, left: 3, right: 4},
			{feature: 1, threshold: 1, left: 5, right: 6},
			leaf(1), leaf(2), leaf(3), leaf(4),
		}},
		{nodes: []node{
			{feature: 1, threshold: 0.5, left: 1, right: 2},
			leaf(5),
			{feature: 0, threshold: -1, left: 3, right: 4},
			leaf(6), leaf(7),
		}},
	}}
}

// walkPanics runs call and fails unless it panics, in this goroutine, with
// an error wrapping ErrWalkBound.
func walkPanics(t *testing.T, label string, call func()) {
	t.Helper()
	var got any
	func() {
		defer func() { got = recover() }()
		call()
	}()
	if err, _ := got.(error); !errors.Is(err, ErrWalkBound) {
		t.Fatalf("%s: got panic %v, want ErrWalkBound", label, got)
	}
}

// TestFlatWalkBoundsEveryCorruptLink points each internal node's left, then
// its right, at every index up to its own, one at a time, and walks a row
// that takes that link: Predict, a 16-row PredictAllInto and a 1 024-row one
// on the forked path must each panic with ErrWalkBound in the calling
// goroutine. A forward link that leads deeper than the model's depth must
// too. None may hang.
func TestFlatWalkBoundsEveryCorruptLink(t *testing.T) {
	defer runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))

	fl := compile(t, linkModel())
	// takes[i][side] is a row whose walk follows node i's left (0) or
	// right (1) link.
	takes := map[int32]*[2][]float64{}
	for _, a := range []float64{-2, -0.5, 0.5} {
		for _, b := range []float64{-1, 0.75, 2} {
			row := []float64{a, b}
			for _, root := range fl.roots {
				for i := root; fl.feature[i] >= 0; {
					if takes[i] == nil {
						takes[i] = new([2][]float64)
					}
					side, next := 1, fl.right[i]
					if ft := fl.feature[i]; row[ft] <= fl.edges[ft][fl.cut[i]] {
						side, next = 0, fl.left[i]
					}
					takes[i][side] = row
					i = next
				}
			}
		}
	}

	check := func(label string, c *Flat, row []float64) {
		t.Helper()
		walkPanics(t, label+" Predict", func() { c.Predict(row) })
		for _, n := range []int{16, 1024} {
			rows := make([][]float64, n)
			for r := range rows {
				rows[r] = row
			}
			walkPanics(t, fmt.Sprintf("%s PredictAllInto(%d rows)", label, n), func() { c.PredictAllInto(rows, make([]float64, n)) })
		}
	}
	cases := 0
	for i := range fl.feature {
		if fl.feature[i] < 0 {
			continue
		}
		for side := range 2 {
			row := takes[int32(i)][side]
			if row == nil {
				t.Fatalf("no probe row takes node %d's link %d", i, side)
			}
			for j := 0; j <= i; j++ {
				c := *fl
				c.left, c.right = slices.Clone(fl.left), slices.Clone(fl.right)
				[2][]int32{c.left, c.right}[side][i] = int32(j)
				check("backward link", &c, row)
				cases++
			}
		}
	}
	if cases != 2*(1+2+3+8+10) {
		t.Fatalf("walked %d corrupt links", cases)
	}

	// Node 2 (depth 1) linked forward to node 9, an internal node of tree 1:
	// the walk would take a third step in a model of depth 2.
	c := *fl
	c.right = slices.Clone(fl.right)
	c.right[2] = 9
	check("deeper link", &c, takes[2][1])
}

// BenchmarkFlatCompile times Compile on a model of the bootstrap's shape:
// 80 trees of depth 7 over 101 features, binned 64 ways.
func BenchmarkFlatCompile(b *testing.B) {
	rows, y := synthWide(4000, 101, 7)
	p := TunedBase()
	p.NumTrees, p.MaxDepth, p.NumBins = 80, 7, 64
	m, err := Train(p, rows, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := m.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

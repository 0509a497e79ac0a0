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

// handBuilt is a model's trees before pack lays them out: how a test builds
// a model no training run would.
type handBuilt struct {
	p     Params
	bias  float64
	gain  []float64 // one entry a feature
	trees []tree
}

// pack lays h out, its NumTrees set to its tree count.
func (h handBuilt) pack() (*Model, error) {
	h.p.NumTrees = len(h.trees)
	return pack(h.p, h.bias, len(h.gain), h.gain, h.trees)
}

// model is pack for trees the test expects to lay out.
func (h handBuilt) model(t testing.TB) *Model {
	t.Helper()
	m, err := h.pack()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// artifact is h packed and written: a hand-built model's model.gbt.bin.
func (h handBuilt) artifact(t testing.TB) []byte {
	t.Helper()
	return binaryOf(t, h.model(t))
}

// stumps hand-builds a two-feature model of n one-split trees, tree k
// splitting feature 0 at k: n distinct thresholds on feature 0.
func stumps(n int) handBuilt {
	ths := make([]float64, n)
	for k := range ths {
		ths[k] = float64(k)
	}
	return stumpsAt(ths)
}

// stumpsAt hand-builds a model of one-split trees over at least two
// features: one tree for each threshold in ths[f], splitting feature f.
func stumpsAt(ths ...[]float64) handBuilt {
	h := handBuilt{p: DefaultParams(), bias: 0.5, gain: make([]float64, max(2, len(ths)))}
	for f, fths := range ths {
		h.gain[f] = 1
		for _, v := range fths {
			k := float64(len(h.trees))
			h.trees = append(h.trees, tree{nodes: []node{
				{feature: int32(f), threshold: v, left: 1, right: 2},
				{feature: -1, value: 1 / (k + 3)},
				{feature: -1, value: -1 / (k + 7)},
			}})
		}
	}
	return h
}

// checkCodes pins the threshold tables of m: every edges[f] is strictly
// ascending and each of its entries is cut at by some split, and every
// internal node's cut is inside its feature's table. Given the trees m was
// packed from, every edges[f] holds exactly feature f's distinct
// thresholds and every node's cut indexes its own threshold.
func checkCodes(t testing.TB, label string, m *Model, trees []tree) {
	t.Helper()
	fl := m.Compile()
	cutAt := make([]map[uint8]bool, fl.nFeature)
	for i, ft := range fl.feature {
		if ft < 0 {
			continue
		}
		if int(fl.cut[i]) >= len(fl.edges[ft]) {
			t.Fatalf("%s: node %d cuts feature %d at %d of %d edges", label, i, ft, fl.cut[i], len(fl.edges[ft]))
		}
		if cutAt[ft] == nil {
			cutAt[ft] = map[uint8]bool{}
		}
		cutAt[ft][fl.cut[i]] = true
	}
	for f, e := range fl.edges {
		if len(e) != len(cutAt[f]) {
			t.Fatalf("%s: feature %d has %d edges, %d of them cut at", label, f, len(e), len(cutAt[f]))
		}
		for i := 1; i < len(e); i++ {
			if !(e[i-1] < e[i]) {
				t.Fatalf("%s: feature %d edges %d and %d are %v, %v: not strictly ascending", label, f, i-1, i, e[i-1], e[i])
			}
		}
	}
	if trees == nil {
		return
	}
	at := 0
	for _, tr := range trees {
		for _, n := range tr.nodes {
			if n.feature >= 0 {
				if e := fl.edges[n.feature]; e[fl.cut[at]] != n.threshold {
					t.Fatalf("%s: node %d splits feature %d at %v, but its cut %d is %v", label, at, n.feature, n.threshold, fl.cut[at], e[fl.cut[at]])
				}
			}
			at++
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
// hash to the same slot of pack's numbering table. Each must also predict
// bit-identically to the raw-threshold walk on rows at and one ulp either
// side of every threshold, on training rows and on non-finite rows, and
// survive its artifact unchanged.
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
	type codesCase struct {
		name  string
		m     *Model
		trees []tree // what m was packed from; nil when trained
	}
	cases := []codesCase{{"trained", trained, nil}}
	for name, h := range map[string]handBuilt{
		"255 stumps": stumps(255),
		"repeats and signed zeros": stumpsAt(
			[]float64{0, negZero, 1, 0, negZero, 1, -1, 0},
			[]float64{negZero, negZero, 0.5, 0.5, 0},
			[]float64{3, 3, 3, -3, 3},
		),
		"one-ulp chains": stumpsAt(
			append(append(ulpChain(1, 2, 100), ulpChain(0, 1, 50)...), ulpChain(negZero, -1, 50)...),
			append(ulpChain(-1e300, math.Inf(-1), 120), ulpChain(-1e300, math.Inf(-1), 120)...),
		),
		"one home slot": stumpsAt(collide, reversed),
	} {
		cases = append(cases, codesCase{name, h.model(t), h.trees})
	}
	for _, c := range cases {
		m := c.m
		checkCodes(t, c.name, m, c.trees)
		var probe [][]float64
		for _, e := range m.flat.edges {
			for _, th := range e {
				for _, v := range []float64{th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))} {
					probe = append(probe, slices.Repeat([]float64{v}, m.NumFeatures()))
				}
			}
		}
		probe = append(probe, rows[:50]...)
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			probe = append(probe, slices.Repeat([]float64{v}, m.NumFeatures()))
		}
		for i := range probe {
			probe[i] = probe[i][:m.NumFeatures():m.NumFeatures()]
		}
		bitEqual(t, c.name, m.PredictAll(probe), m.Compile().PredictAll(probe))
		back, err := ReadBinary(binaryOf(t, m))
		if err != nil {
			t.Fatalf("%s: artifact refused: %v", c.name, err)
		}
		bitEqual(t, c.name+" loaded", m.PredictAll(probe), back.Compile().PredictAll(probe))
	}
}

// TestFlatCompileThresholdLimit: 255 distinct thresholds on a feature fit
// the walk's uint8 codes and pack to a bit-identical Flat; 256 or more are
// refused with an error naming the feature and the full count, however far
// past the limit it is and however often the thresholds repeat.
func TestFlatCompileThresholdLimit(t *testing.T) {
	var rows [][]float64
	for v := -1.0; v <= 256; v += 0.5 {
		rows = append(rows, []float64{v, -v})
	}
	rows = append(rows, []float64{math.NaN(), 0}, []float64{math.Inf(1), 0}, []float64{math.Inf(-1), 0})

	m := stumps(255).model(t)
	bitEqual(t, "255 thresholds", m.PredictAll(rows), m.Compile().PredictAll(rows))

	_, err := stumps(256).pack()
	if !errors.Is(err, ErrTooManyThresholds) || !strings.Contains(err.Error(), "feature 0 has 256") {
		t.Fatalf("256 thresholds on feature 0: got %v, want ErrTooManyThresholds naming the feature and count", err)
	}
	twice := make([]float64, 600) // 0 up to 299, then back down
	for k := range twice {
		twice[k] = float64(min(k, 599-k))
	}
	for name, h := range map[string]handBuilt{"300 thresholds": stumps(300), "300 thresholds, each twice": stumpsAt(twice)} {
		if _, err := h.pack(); !errors.Is(err, ErrTooManyThresholds) || !strings.Contains(err.Error(), "feature 0 has 300,") {
			t.Fatalf("%s on feature 0: got %v, want ErrTooManyThresholds naming the feature and count", name, err)
		}
	}
}

// TestFlatCompileSharedChildren: ReadBinary accepts any forward links, so a
// node may have several parents. A chain of 60 splits whose two links both
// lead to the next node has 2^60 root-to-leaf paths; pack and ReadBinary
// must still measure its depth in one pass, the walks must agree on it, and
// a MaxDepth below it must be refused.
func TestFlatCompileSharedChildren(t *testing.T) {
	h := handBuilt{p: DefaultParams(), gain: []float64{1, 1}}
	h.p.MaxDepth = 60
	var nodes []node
	for i := int32(0); i < 60; i++ {
		nodes = append(nodes, node{feature: i % 2, threshold: float64(i % 3), left: i + 1, right: i + 1})
	}
	h.trees = []tree{{nodes: append(nodes, node{feature: -1, value: 2})}}
	m, err := ReadBinary(h.artifact(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.flat.depth != 60 || h.model(t).flat.depth != 60 {
		t.Fatalf("depth %d loaded, %d packed, want 60", m.flat.depth, h.model(t).flat.depth)
	}
	rows := [][]float64{{0, 0}, {5, -5}, {math.NaN(), 1}}
	bitEqual(t, "shared children", m.PredictAll(rows), m.Compile().PredictAll(rows))
	h.p.MaxDepth = 59
	if _, err := h.pack(); err == nil || !strings.Contains(err.Error(), "60 deep") {
		t.Fatalf("60-deep trees under MaxDepth 59: got %v", err)
	}
}

// linkModel hand-builds two trees over two features, each of whose links
// some row of TestFlatWalkBoundsEveryCorruptLink's probe grid takes:
//
//	tree 0 (nodes 0-6): 0: f0<=0 ? 1 : 2; 1: f1<=0 ? 3 : 4; 2: f1<=1 ? 5 : 6
//	tree 1 (nodes 7-11): 7: f1<=0.5 ? 8 : 9; 9: f0<=-1 ? 10 : 11
func linkModel() handBuilt {
	leaf := func(v float64) node { return node{feature: -1, value: v} }
	return handBuilt{p: DefaultParams(), bias: 0.25, gain: []float64{1, 1}, trees: []tree{
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

	fl := linkModel().model(t).Compile()
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

// BenchmarkReadBinary times a model load on a model of the bootstrap's
// shape: 80 trees of depth 7 over 101 features, binned 64 ways.
func BenchmarkReadBinary(b *testing.B) {
	rows, y := synthWide(4000, 101, 7)
	p := TunedBase()
	p.NumTrees, p.MaxDepth, p.NumBins = 80, 7, 64
	m, err := Train(p, rows, y)
	if err != nil {
		b.Fatal(err)
	}
	data := binaryOf(b, m)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ReadBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

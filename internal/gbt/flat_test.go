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
	p := DefaultParams()
	p.NumTrees = n
	m := &Model{params: p, bias: 0.5, nFeature: 2, gain: []float64{1, 0}}
	for k := 0; k < n; k++ {
		m.trees = append(m.trees, tree{nodes: []node{
			{feature: 0, threshold: float64(k), left: 1, right: 2},
			{feature: -1, value: 1 / float64(k+3)},
			{feature: -1, value: -1 / float64(k+7)},
		}})
	}
	return m
}

// TestFlatCompileThresholdLimit: 255 distinct thresholds on a feature fit
// the walk's uint8 codes and compile to a bit-identical Flat; 256 are
// refused with an error naming the feature and the count.
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

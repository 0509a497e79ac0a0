package gbt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Flat is the one node layout of a finished Model and its serving engine.
// Training grows each tree as its own node slice (trees grow independently),
// and pack lays the finished ensemble out once in contiguous
// struct-of-arrays storage, which is also what model.gbt.bin holds (see
// binHeader): a batch walk streams a few flat arrays instead of chasing
// pointers, and a load decodes those arrays without compiling anything.
//
// Every split threshold is kept once, in a per-feature table: edges[f] is
// the sorted distinct thresholds used on feature f anywhere in the ensemble
// (at most 255 of them, so a uint8 code suffices), and a split node holds
// its threshold's index cut into that table. The Model's walks compare the
// raw row against edges[f][cut]; Flat's walks encode a batch once — one
// binary search per feature per row — and every tree traversal compares
// uint8 codes instead of float64s. Because code(edges, v) <= cut exactly
// when v <= edges[cut] (the same lower-bound identity binned.go relies on),
// the quantized walk lands in the identical leaf, making predictions
// bit-identical to Model.Predict / Model.PredictAll: same leaves, same
// float64 leaf values, same accumulation order (bias, then trees
// ascending).
//
// Every coded walk is bounded: each link must point past the node it
// leaves, and no walk takes more steps than the deepest tree has levels. A
// link that breaks either rule (only corrupt arrays have one) panics with
// ErrWalkBound instead of spinning or landing on an earlier node.
//
// A Flat is immutable and safe for concurrent use.
type Flat struct {
	bias     float64
	lr       float64
	nFeature int
	// depth is the deepest tree's depth, the step bound of every walk.
	depth int32
	// roots[t] is tree t's root index into the node arrays below.
	roots []int32
	// feature[i] < 0 marks a leaf (always -1).
	feature []int32
	// leaf[i] is the value of a leaf node (0 at internal nodes).
	leaf []float64
	// left / right are absolute child indices (0 at leaves).
	left, right []int32
	// cut[i] is an internal node's split threshold as its index in
	// edges[feature[i]] (0 at leaves).
	cut []uint8
	// edges[f] is feature f's sorted distinct split thresholds.
	edges [][]float64
}

// ErrTooManyThresholds refuses a model whose cuts on some feature do not
// fit the walk's uint8 codes: pack refuses to lay out such trees and
// ReadBinary such an artifact (possible only for hand-built or hostile
// models: NumBins <= 256 gives a trained one at most 255).
var ErrTooManyThresholds = errors.New("gbt: too many distinct split thresholds for the flat walk")

// ErrWalkBound is what a walk's panic wraps when it meets a link pointing
// backward or deeper than the model's depth: the arrays are corrupt.
var ErrWalkBound = errors.New("gbt: flat walk left its bound")

// Compile returns the model's flat engine. The model is stored in that
// layout, so there is nothing left to compile: every caller shares one Flat.
func (m *Model) Compile() *Flat { return &m.flat }

// pack lays finished trees out as a Model's Flat. It refuses trees with
// more than 255 distinct thresholds on a feature or deeper than
// p.MaxDepth, which training never grows; the trees must have strictly
// forward links and in-range features, as training builds them.
//
// The threshold tables take linear passes: a counting pass buckets the
// internal nodes by feature; per feature, a small open-addressing table
// numbers the distinct thresholds in first-seen order, only those (at most
// 255) are sorted, and each node's cut is rewritten from its threshold's
// first-seen number to its rank, with no per-node search. Every edges[f] is
// a slice of one exactly-sized array.
func pack(p Params, bias float64, nFeature int, gain []float64, trees []tree) (*Model, error) {
	total, widest := 0, 0
	for i := range trees {
		total += len(trees[i].nodes)
		widest = max(widest, len(trees[i].nodes))
	}
	m := &Model{params: p, gain: gain, flat: Flat{
		bias:     bias,
		lr:       p.LearningRate,
		nFeature: nFeature,
		roots:    make([]int32, len(trees)),
		feature:  make([]int32, total),
		leaf:     make([]float64, total),
		left:     make([]int32, total),
		right:    make([]int32, total),
		cut:      make([]uint8, total),
		edges:    make([][]float64, nFeature),
	}}
	f := &m.flat
	// level[i] is the depth of the tree's node i. Links point forward, so
	// every parent of a node, and there may be several, precedes it.
	level := make([]int32, widest)
	// Feature ft's split thresholds go to thr[start[ft]:start[ft+1]], their
	// nodes' flat indices to the same places of at.
	start := make([]int32, nFeature+1)
	base := int32(0)
	for t := range trees {
		f.roots[t] = base
		clear(level)
		nodes := trees[t].nodes
		for i := range nodes {
			n := &nodes[i]
			if n.feature < 0 {
				f.feature[base], f.leaf[base] = -1, n.value
				f.depth = max(f.depth, level[i])
			} else {
				f.feature[base] = n.feature
				f.leaf[base] = n.threshold // until it is bucketed below
				f.left[base] = f.roots[t] + n.left
				f.right[base] = f.roots[t] + n.right
				level[n.left] = max(level[n.left], level[i]+1)
				level[n.right] = max(level[n.right], level[i]+1)
				start[n.feature+1]++
			}
			base++
		}
	}
	if int(f.depth) > p.MaxDepth {
		return nil, fmt.Errorf("gbt: trees %d deep for MaxDepth %d", f.depth, p.MaxDepth)
	}
	for ft := range nFeature {
		start[ft+1] += start[ft]
	}
	thr, at := make([]float64, start[nFeature]), make([]int32, start[nFeature])
	next := slices.Clone(start)
	for i, ft := range f.feature {
		if ft >= 0 {
			thr[next[ft]], at[next[ft]], f.leaf[i] = f.leaf[i], int32(i), 0
			next[ft]++
		}
	}
	// Per feature, cut holds a first-seen number until the ranks are known,
	// and the sorted distinct thresholds are packed at the front of thr.
	var tab numbering
	var rank [255]uint8 // a first-seen number's sorted position
	packed := 0
	for ft := range nFeature {
		lo, hi := start[ft], start[ft+1]
		clear(tab.slots[:])
		n := uint8(0)
		for k := lo; k < hi; k++ {
			h := tab.slot(thr[k])
			if tab.slots[h] == 0 {
				// A cut of 255 must stay free for the always-right NaN code.
				if n == 255 {
					// thr[lo:k] holds only values tab has numbered, so the
					// feature's distinct thresholds are tab's and thr[k:hi]'s.
					rest := append(tab.first[:], thr[k:hi]...)
					slices.Sort(rest)
					return nil, fmt.Errorf("%w: feature %d has %d, at most 255 fit a uint8 code", ErrTooManyThresholds, ft, len(slices.Compact(rest)))
				}
				tab.first[n] = thr[k]
				n++
				tab.slots[h] = n
			}
			f.cut[at[k]] = tab.slots[h] - 1
		}
		// packed <= lo: no feature has more distinct thresholds than splits.
		sorted := thr[packed : packed+int(n)]
		copy(sorted, tab.first[:n])
		slices.Sort(sorted)
		for r, v := range sorted {
			rank[tab.slots[tab.slot(v)]-1] = uint8(r)
		}
		for _, i := range at[lo:hi] {
			f.cut[i] = rank[f.cut[i]]
		}
		f.edges[ft] = sorted
		packed += int(n)
	}
	// Move the tables out of the scratch into one exactly-sized array.
	backing := slices.Clone(thr[:packed])
	for ft, e := range f.edges {
		f.edges[ft], backing = backing[:len(e):len(e)], backing[len(e):]
	}
	return m, nil
}

// numbering is pack's table of one feature's distinct thresholds: first
// lists them in first-seen order, and slots is an open-addressing hash
// table over them, sized well above the 255 it may hold so that probe runs
// stay short.
type numbering struct {
	slots [1 << 10]uint8 // a first-seen number + 1; 0 is free
	first [255]float64
}

// slot returns the slot that numbers v, or the free slot v would take:
// linear probing from a Fibonacci hash of the key into the table's 10-bit
// index. The key is v+0's bits, which folds -0 onto +0 (the two compare
// equal, so they are one threshold) and lets a NaN find itself.
func (t *numbering) slot(v float64) int {
	key := math.Float64bits(v + 0)
	h := int(key * 0x9e3779b97f4a7c15 >> (64 - 10))
	for t.slots[h] != 0 && math.Float64bits(t.first[t.slots[h]-1]+0) != key {
		h = (h + 1) % len(t.slots)
	}
	return h
}

// NumFeatures returns the feature-row width the source model was trained on.
func (f *Flat) NumFeatures() int { return f.nFeature }

// NumTrees returns the packed tree count.
func (f *Flat) NumTrees() int { return len(f.roots) }

// Predict returns the prediction for one feature row, bit-identical to
// Model.Predict: a one-row PredictAllInto.
func (f *Flat) Predict(row []float64) float64 {
	var out [1]float64
	f.PredictAllInto([][]float64{row}, out[:])
	return out[0]
}

// PredictAll predicts every row (see PredictAllInto).
func (f *Flat) PredictAll(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	f.PredictAllInto(rows, out)
	return out
}

// codesPool recycles the per-chunk row-code buffers, so steady-state batch
// prediction allocates nothing.
var codesPool = sync.Pool{New: func() any { return new([]uint8) }}

// PredictAllInto predicts every row into out (len(out) must equal
// len(rows)), bit-identical to Model.PredictAll: per row the accumulation
// is bias first, then trees in ascending order, and the quantized walk
// selects the same leaves as raw-threshold comparison. The only heap
// traffic is pooled scratch, so steady-state callers allocate nothing.
func (f *Flat) PredictAllInto(rows [][]float64, out []float64) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("gbt: PredictAllInto output has %d slots for %d rows", len(out), len(rows)))
	}
	if len(rows) == 0 {
		return
	}
	for i, r := range rows {
		if len(r) != f.nFeature {
			panic(fmt.Sprintf("gbt: predict row has %d features, model trained on %d", len(r), f.nFeature))
		}
		out[i] = f.bias
	}
	// A single chunk is walked here: the closure below escapes through
	// parallelChunks' goroutines, so merely building it is an allocation.
	if len(rows) <= predictChunk {
		f.predictBlock(rows, out, 0, len(rows))
		return
	}
	parallelChunks(len(rows), predictChunk, func(lo, hi int) {
		f.predictBlock(rows, out, lo, hi)
	})
}

// predictBlock accumulates all trees over rows [lo,hi) into out, chunked so
// each tree's nodes stay hot across the chunk (the same blocking as
// Model.PredictAll).
func (f *Flat) predictBlock(rows [][]float64, out []float64, lo, hi int) {
	nf := f.nFeature
	bufp := codesPool.Get().(*[]uint8)
	if cap(*bufp) < predictChunk*nf {
		*bufp = make([]uint8, predictChunk*nf)
	}
	codes := (*bufp)[:predictChunk*nf]
	defer codesPool.Put(bufp)

	for clo := lo; clo < hi; clo += predictChunk {
		chi := clo + predictChunk
		if chi > hi {
			chi = hi
		}
		chunk := rows[clo:chi]
		acc := out[clo:chi]
		// Encode the chunk once: one lower-bound search per used feature
		// per row. A NaN input compares false against every threshold, so
		// raw traversal always goes right; code 255 reproduces that (cuts
		// are <= 254 because each table holds at most 255 edges).
		for ri, r := range chunk {
			rc := codes[ri*nf : ri*nf+nf]
			for ft, edges := range f.edges {
				if len(edges) == 0 {
					continue
				}
				v := r[ft]
				if v != v {
					rc[ft] = 255
					continue
				}
				rc[ft] = code(edges, v)
			}
		}
		for _, root := range f.roots {
			for ri := range chunk {
				rc := codes[ri*nf : ri*nf+nf]
				i := root
				for d := f.depth; f.feature[i] >= 0; d-- {
					next := f.right[i]
					if rc[f.feature[i]] <= f.cut[i] {
						next = f.left[i]
					}
					if next <= i || d == 0 {
						panic(fmt.Errorf("%w: node %d links to node %d", ErrWalkBound, i, next))
					}
					i = next
				}
				acc[ri] += f.lr * f.leaf[i]
			}
		}
	}
}

package gbt

import (
	"fmt"
	"sort"
	"sync"
)

// Flat is a compiled, cache-friendly view of a trained Model, built for the
// serving hot path. The pointer-per-tree layout of Model is what training
// wants (trees grow independently), but at inference it scatters node reads
// across one small allocation per tree; Flat packs every tree's nodes into
// contiguous struct-of-arrays storage and walks them by index, so a batch
// walk streams a few flat arrays instead of chasing pointers.
//
// On top of the packed layout, Compile builds a serve-time quantization of
// the model's own split thresholds: per feature, the sorted distinct
// thresholds used anywhere in the ensemble (at most NumBins-1 <= 255 of
// them, so a uint8 code suffices). A batch is then encoded once — one
// binary search per feature per row — and every tree traversal compares
// uint8 codes instead of float64s. Because code(edges, v) <= cut exactly
// when v <= edges[cut] (the same lower-bound identity binned.go relies on),
// the quantized walk lands in the identical leaf, making predictions
// bit-identical to Model.Predict / Model.PredictAll: same leaves, same
// float64 leaf values, same accumulation order (bias, then trees ascending).
//
// A Flat is immutable after Compile and safe for concurrent use.
type Flat struct {
	bias     float64
	lr       float64
	nFeature int
	// roots[t] is tree t's root index into the node arrays below.
	roots []int32
	// feature[i] < 0 marks a leaf.
	feature []int32
	// thr[i] is the split threshold of an internal node, or the leaf value
	// of a leaf node (the two never coexist, so they share one array).
	thr []float64
	// left / right are absolute child indices.
	left, right []int32
	// cut[i] is the quantized threshold: the index of thr[i] in
	// edges[feature[i]]. Valid only when quantized.
	cut []uint8
	// edges[f] is feature f's sorted distinct split thresholds.
	edges [][]float64
	// quantized is false when some feature uses more than 255 distinct
	// thresholds (possible only for hand-built or hostile models); the
	// float fallback path is then used, still over the packed layout.
	quantized bool
}

// Compile flattens the model into its packed serving representation.
func (m *Model) Compile() *Flat {
	total := 0
	for i := range m.trees {
		total += len(m.trees[i].nodes)
	}
	f := &Flat{
		bias:     m.bias,
		lr:       m.params.LearningRate,
		nFeature: m.nFeature,
		roots:    make([]int32, len(m.trees)),
		feature:  make([]int32, total),
		thr:      make([]float64, total),
		left:     make([]int32, total),
		right:    make([]int32, total),
		edges:    make([][]float64, m.nFeature),
	}
	base := int32(0)
	for t := range m.trees {
		f.roots[t] = base
		for _, n := range m.trees[t].nodes {
			at := base
			f.feature[at] = n.feature
			if n.feature < 0 {
				f.thr[at] = n.value
			} else {
				f.thr[at] = n.threshold
				f.left[at] = f.roots[t] + n.left
				f.right[at] = f.roots[t] + n.right
			}
			base++
		}
	}
	f.quantize()
	return f
}

// quantize builds the per-feature threshold tables and per-node cut codes.
func (f *Flat) quantize() {
	for i, ft := range f.feature {
		if ft < 0 {
			continue
		}
		f.edges[ft] = append(f.edges[ft], f.thr[i])
	}
	for ft := range f.edges {
		f.edges[ft] = sortedDistinct(f.edges[ft])
		if len(f.edges[ft]) > 255 {
			// Codes would not fit a uint8 (and a cut of 255 must stay
			// reserved for the always-right NaN code); fall back to the
			// float path for the whole model.
			f.quantized = false
			f.cut = nil
			return
		}
	}
	f.cut = make([]uint8, len(f.feature))
	for i, ft := range f.feature {
		if ft < 0 {
			continue
		}
		f.cut[i] = code(f.edges[ft], f.thr[i])
		// code returns the lower bound: the count of edges strictly below
		// thr. The threshold itself is in the table, so that count is
		// exactly its index.
	}
	f.quantized = true
}

// sortedDistinct sorts xs ascending and removes exact duplicates in place.
func sortedDistinct(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	sort.Float64s(xs)
	out := xs[:1]
	for _, v := range xs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// NumFeatures returns the feature-row width the source model was trained on.
func (f *Flat) NumFeatures() int { return f.nFeature }

// NumTrees returns the packed tree count.
func (f *Flat) NumTrees() int { return len(f.roots) }

// NumNodes returns the total packed node count.
func (f *Flat) NumNodes() int { return len(f.feature) }

// Quantized reports whether the uint8-coded traversal is in use.
func (f *Flat) Quantized() bool { return f.quantized }

// Predict returns the prediction for one feature row, bit-identical to
// Model.Predict.
func (f *Flat) Predict(row []float64) float64 {
	if len(row) != f.nFeature {
		panic(fmt.Sprintf("gbt: predict row has %d features, model trained on %d", len(row), f.nFeature))
	}
	s := f.bias
	for _, root := range f.roots {
		i := root
		for f.feature[i] >= 0 {
			if row[f.feature[i]] <= f.thr[i] {
				i = f.left[i]
			} else {
				i = f.right[i]
			}
		}
		s += f.lr * f.thr[i]
	}
	return s
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
// Model.predictBlock).
func (f *Flat) predictBlock(rows [][]float64, out []float64, lo, hi int) {
	if !f.quantized {
		f.predictBlockFloat(rows, out, lo, hi)
		return
	}
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
				for f.feature[i] >= 0 {
					if rc[f.feature[i]] <= f.cut[i] {
						i = f.left[i]
					} else {
						i = f.right[i]
					}
				}
				acc[ri] += f.lr * f.thr[i]
			}
		}
	}
}

// predictBlockFloat is the unquantized fallback: packed-layout traversal on
// raw thresholds.
func (f *Flat) predictBlockFloat(rows [][]float64, out []float64, lo, hi int) {
	for clo := lo; clo < hi; clo += predictChunk {
		chi := clo + predictChunk
		if chi > hi {
			chi = hi
		}
		chunk := rows[clo:chi]
		acc := out[clo:chi]
		for _, root := range f.roots {
			for ri, r := range chunk {
				i := root
				for f.feature[i] >= 0 {
					if r[f.feature[i]] <= f.thr[i] {
						i = f.left[i]
					} else {
						i = f.right[i]
					}
				}
				acc[ri] += f.lr * f.thr[i]
			}
		}
	}
}

package gbt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Batch prediction kernels. Walking every tree for one row before moving to
// the next row streams the whole ensemble (megabytes of nodes) through the
// cache per row; these kernels instead fix a chunk of rows and walk one
// tree across the chunk, so each tree's nodes are hot for the whole chunk.
// Per row, trees are still accumulated in ascending order, so results are
// bit-identical to Predict. Chunks are independent and fan out across CPUs.

// predictChunk is the number of rows a tree is walked across before moving
// to the next tree. 128 rows keep the chunk's accumulators and row headers
// resident while a tree's nodes are reused 128 times.
const predictChunk = 128

// PredictAll predicts every row.
func (m *Model) PredictAll(rows [][]float64) []float64 {
	f := &m.flat
	out := make([]float64, len(rows))
	if len(rows) == 0 {
		return out
	}
	for i, r := range rows {
		if len(r) != f.nFeature {
			panic(fmt.Sprintf("gbt: predict row has %d features, model trained on %d", len(r), f.nFeature))
		}
		out[i] = f.bias
	}
	parallelChunks(len(rows), predictChunk, func(lo, hi int) {
		f.predictBlockRaw(rows, out, lo, hi)
	})
	return out
}

// predictBlockRaw accumulates all trees over rows [lo,hi) into out on raw
// thresholds, walking chunk-by-chunk with the tree loop outermost within
// each chunk.
func (f *Flat) predictBlockRaw(rows [][]float64, out []float64, lo, hi int) {
	for clo := lo; clo < hi; clo += predictChunk {
		chi := clo + predictChunk
		if chi > hi {
			chi = hi
		}
		chunk := rows[clo:chi]
		acc := out[clo:chi]
		for _, root := range f.roots {
			for i, r := range chunk {
				acc[i] += f.lr * f.leafFor(root, r)
			}
		}
	}
}

// PredictStages evaluates every prefix of the ensemble named in stages
// (ascending tree counts, each in [0, NumTrees]) over rows, in a single
// pass: out[s][i] is bit-identical to what a model trained with
// NumTrees=stages[s] (and otherwise equal Params) would predict for
// rows[i], because boosting round t depends only on rounds before it.
// This collapses the tree-count axis of a hyperparameter sweep into one
// training run plus one staged prediction pass.
func (m *Model) PredictStages(rows [][]float64, stages []int) ([][]float64, error) {
	if !sort.IntsAreSorted(stages) {
		return nil, fmt.Errorf("gbt: stages %v not ascending", stages)
	}
	f := &m.flat
	if len(stages) > 0 && (stages[0] < 0 || stages[len(stages)-1] > len(f.roots)) {
		return nil, fmt.Errorf("gbt: stages %v out of [0,%d]", stages, len(f.roots))
	}
	out := make([][]float64, len(stages))
	for s := range out {
		out[s] = make([]float64, len(rows))
	}
	if len(stages) == 0 || len(rows) == 0 {
		return out, nil
	}
	for _, r := range rows {
		if len(r) != f.nFeature {
			panic(fmt.Sprintf("gbt: predict row has %d features, model trained on %d", len(r), f.nFeature))
		}
	}
	parallelChunks(len(rows), predictChunk, func(lo, hi int) {
		acc := make([]float64, predictChunk)
		for clo := lo; clo < hi; clo += predictChunk {
			chi := clo + predictChunk
			if chi > hi {
				chi = hi
			}
			chunk := rows[clo:chi]
			a := acc[:len(chunk)]
			for i := range a {
				a[i] = f.bias
			}
			next := 0
			for next < len(stages) && stages[next] == 0 {
				copy(out[next][clo:chi], a)
				next++
			}
			for t := 0; t < len(f.roots) && next < len(stages); t++ {
				for i, r := range chunk {
					a[i] += f.lr * f.leafFor(f.roots[t], r)
				}
				for next < len(stages) && stages[next] == t+1 {
					copy(out[next][clo:chi], a)
					next++
				}
			}
		}
	})
	return out, nil
}

// parallelChunks splits [0, n) into chunk-aligned spans across CPUs and
// runs fn on each; on a single CPU (or small n) it just runs fn inline. A
// panic in a forked span is re-raised here once every span has returned, so
// the caller's recover sees it on either path instead of the process dying.
func parallelChunks(n, chunk int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	spans := (n + chunk - 1) / chunk
	if workers > spans {
		workers = spans
	}
	if workers <= 1 || n < 4*chunk {
		fn(0, n)
		return
	}
	per := ((spans + workers - 1) / workers) * chunk
	var fork struct {
		wg     sync.WaitGroup
		once   sync.Once
		caught any
	}
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		fork.wg.Add(1)
		go func(lo, hi int) {
			defer func() {
				if r := recover(); r != nil {
					fork.once.Do(func() { fork.caught = r })
				}
				fork.wg.Done()
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	fork.wg.Wait()
	if fork.caught != nil {
		panic(fork.caught)
	}
}

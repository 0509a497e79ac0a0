// Package gbt implements histogram-based gradient-boosted regression trees,
// the reproduction of the XGBoost models the paper tunes in Sec. VI. The
// four hyperparameters the paper sweeps exhaustively — tree count, tree
// depth, row subsample, and column subsample — are exposed, along with the
// usual learning rate and regularization knobs.
//
// Training uses squared-error boosting on quantile-binned features:
// per-node gradient histograms are accumulated per feature (in parallel for
// wide datasets) and the best bin boundary becomes the split. Split
// thresholds are stored as raw feature values, so prediction needs no
// binning state; a finished model holds its trees only in the flat layout
// (flat.go) that serves them and that model.gbt.bin stores.
package gbt

import (
	"errors"
	"fmt"
	"sort"

	"iotaxo/internal/rng"
)

// Params are the model hyperparameters.
type Params struct {
	// NumTrees is the boosting round count (the paper sweeps 4..1024).
	NumTrees int
	// MaxDepth bounds tree depth (the paper sweeps 12..24; default 6).
	MaxDepth int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64
	// Subsample is the row fraction sampled per tree (0 < s <= 1).
	Subsample float64
	// ColSample is the feature fraction sampled per tree (0 < c <= 1).
	ColSample float64
	// MinChildWeight is the minimum sample count in a leaf.
	MinChildWeight float64
	// Lambda is the L2 regularizer on leaf values.
	Lambda float64
	// NumBins is the histogram resolution (2..256).
	NumBins int
	// Seed drives row/column sampling.
	Seed uint64
}

// DefaultParams mirrors the XGBoost defaults the paper calls out (100
// trees of depth 6, eta 0.3, min_child_weight 1): the starting point a
// practitioner would use before the taxonomy's Step 2.2 tuning. The
// aggressive learning rate and weak leaf regularization make the default
// overfit noisy I/O data — which is exactly the approximation error the
// tuning step removes.
func DefaultParams() Params {
	return Params{
		NumTrees:       100,
		MaxDepth:       6,
		LearningRate:   0.3,
		Subsample:      1.0,
		ColSample:      1.0,
		MinChildWeight: 1,
		Lambda:         1.0,
		NumBins:        64,
		Seed:           1,
	}
}

// TunedBase returns the regularized starting point the hyperparameter
// grids sweep around (the paper's searches settle on configurations in
// this regime: slower learning rate, real leaf regularization).
func TunedBase() Params {
	p := DefaultParams()
	p.LearningRate = 0.08
	p.MinChildWeight = 5
	return p
}

// Validate checks hyperparameter ranges.
func (p Params) Validate() error {
	switch {
	case p.NumTrees <= 0:
		return fmt.Errorf("gbt: NumTrees must be positive, got %d", p.NumTrees)
	case p.MaxDepth <= 0 || p.MaxDepth > 60:
		return fmt.Errorf("gbt: MaxDepth %d out of (0,60]", p.MaxDepth)
	case p.LearningRate <= 0 || p.LearningRate > 1:
		return fmt.Errorf("gbt: LearningRate %v out of (0,1]", p.LearningRate)
	case p.Subsample <= 0 || p.Subsample > 1:
		return fmt.Errorf("gbt: Subsample %v out of (0,1]", p.Subsample)
	case p.ColSample <= 0 || p.ColSample > 1:
		return fmt.Errorf("gbt: ColSample %v out of (0,1]", p.ColSample)
	case p.NumBins < 2 || p.NumBins > 256:
		return fmt.Errorf("gbt: NumBins %d out of [2,256]", p.NumBins)
	case p.Lambda < 0:
		return fmt.Errorf("gbt: negative Lambda")
	case p.MinChildWeight < 0:
		return fmt.Errorf("gbt: negative MinChildWeight")
	}
	return nil
}

// node is one tree node while training grows it; pack lays the finished
// trees out as the model's Flat.
type node struct {
	// feature < 0 marks a leaf; value holds the leaf weight.
	feature int32
	// bin is the split threshold in bin-code space (codes <= bin go left):
	// it lets boosting predict out-of-sample rows on uint8 bin codes.
	bin       int32
	threshold float64
	left      int32
	right     int32
	value     float64
}

// tree is a regression tree being boosted.
type tree struct {
	nodes []node
}

// predictCoded walks the tree for one row of bin codes (rc[f] is the code
// of feature f). Because code(edges, v) <= bin exactly when v <= edges[bin],
// this lands in the same leaf as a raw-threshold walk.
func (t *tree) predictCoded(rc []uint8) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if rc[n.feature] <= uint8(n.bin) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained gradient-boosted ensemble. Its trees are held only in
// the flat layout they are served and stored in.
type Model struct {
	params Params
	// gain[f] accumulates the split gain attributed to feature f.
	gain []float64
	flat Flat
}

// Params returns the hyperparameters the model was trained with.
func (m *Model) Params() Params { return m.params }

// NumTrees returns the number of fitted trees.
func (m *Model) NumTrees() int { return len(m.flat.roots) }

// NumFeatures returns the feature-row width the model was trained on, so
// callers (e.g. a serving registry) can validate inputs before Predict.
func (m *Model) NumFeatures() int { return m.flat.nFeature }

// Predict returns the prediction for one feature row.
func (m *Model) Predict(row []float64) float64 {
	f := &m.flat
	if len(row) != f.nFeature {
		panic(fmt.Sprintf("gbt: predict row has %d features, model trained on %d", len(row), f.nFeature))
	}
	s := f.bias
	for _, root := range f.roots {
		s += f.lr * f.leafFor(root, row)
	}
	return s
}

// leafFor walks the tree at root for one row on raw thresholds, the walk
// the coded one is checked against, and returns the leaf's value.
func (f *Flat) leafFor(root int32, row []float64) float64 {
	i := root
	for ft := f.feature[i]; ft >= 0; ft = f.feature[i] {
		if row[ft] <= f.edges[ft][f.cut[i]] {
			i = f.left[i]
		} else {
			i = f.right[i]
		}
	}
	return f.leaf[i]
}

// FeatureImportance returns the total split gain per feature, normalized
// to sum to 1 (all zeros if the model never split).
func (m *Model) FeatureImportance() []float64 {
	out := make([]float64, len(m.gain))
	total := 0.0
	for _, g := range m.gain {
		total += g
	}
	if total <= 0 {
		return out
	}
	for i, g := range m.gain {
		out[i] = g / total
	}
	return out
}

// ErrNoData is returned when training has no rows.
var ErrNoData = errors.New("gbt: empty training set")

// Train fits a model to rows/targets. Rows must be rectangular. Callers
// training several candidates on the same rows should Bin once and use
// TrainBinned, which skips the per-call quantization.
func Train(p Params, rows [][]float64, y []float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Reject bad targets before paying for quantization.
	if err := checkTargets(len(rows), y); err != nil {
		return nil, err
	}
	bd, err := Bin(rows, p.NumBins)
	if err != nil {
		return nil, err
	}
	return TrainBinned(p, bd, y)
}

// TrainBinned fits a model to a pre-quantized dataset. It produces exactly
// the model Train would build from the raw rows, provided p.NumBins matches
// the bin budget the view was built with.
func TrainBinned(p Params, bd *Binned, y []float64) (*Model, error) {
	m, _, err := FitBinned(p, bd, y)
	return m, err
}

// FitBinned is TrainBinned returning also the model's final in-sample
// predictions, which boosting maintains incrementally anyway; they are
// bit-identical to m.PredictAll over the training rows, so callers that
// evaluate training error can skip that full prediction pass.
func FitBinned(p Params, bd *Binned, y []float64) (*Model, []float64, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.NumBins != bd.numBins {
		return nil, nil, fmt.Errorf("gbt: params want %d bins, view binned with %d", p.NumBins, bd.numBins)
	}
	if err := bd.checkTargets(y); err != nil {
		return nil, nil, err
	}
	n, nf := bd.nRows, bd.nCols
	gain := make([]float64, nf)
	bias := mean(y)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = bias
	}
	resid := make([]float64, n)
	r := rng.New(p.Seed)
	builder := newTreeBuilder(bd, p, gain)
	trees := make([]tree, 0, p.NumTrees)

	fullRows := p.Subsample >= 1
	idx := make([]int32, n)
	var colBuf []int
	var inSample []bool
	if !fullRows {
		inSample = make([]bool, n)
	}
	lr := p.LearningRate

	for t := 0; t < p.NumTrees; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		rowsIdx := sampleRows(idx, p.Subsample, r)
		cols := sampleCols(&colBuf, nf, p.ColSample, r)
		tr, leaves := builder.build(rowsIdx, cols, resid, fullRows)
		trees = append(trees, tr)
		// Update predictions over ALL rows (not just the subsample):
		// in-sample rows straight from the leaf partition of the index
		// buffer, out-of-sample rows by walking the tree on bin codes.
		for _, lf := range leaves {
			v := lr * lf.value
			for _, i := range rowsIdx[lf.lo:lf.hi] {
				pred[i] += v
			}
		}
		if !fullRows {
			for i := range inSample {
				inSample[i] = false
			}
			for _, i := range rowsIdx {
				inSample[i] = true
			}
			rowCodes := bd.rowCodes
			for i := range pred {
				if !inSample[i] {
					pred[i] += lr * tr.predictCoded(rowCodes[i*nf:i*nf+nf])
				}
			}
		}
	}
	m, err := pack(p, bias, nf, gain, trees)
	if err != nil {
		return nil, nil, err
	}
	return m, pred, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sampleRows fills idx with the boosting round's row sample: the identity
// when frac >= 1, otherwise a partial Fisher-Yates prefix of size
// frac*len(idx). idx is caller-owned scratch reused across rounds.
func sampleRows(idx []int32, frac float64, r *rng.Rand) []int32 {
	n := len(idx)
	for i := range idx {
		idx[i] = int32(i)
	}
	if frac >= 1 {
		return idx
	}
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// sampleCols returns the round's feature sample in ascending order, so the
// histogram and split scans touch features in a deterministic, memory-
// friendly order regardless of the permutation the sampler drew. buf is
// caller-owned scratch reused across rounds.
func sampleCols(buf *[]int, n int, frac float64, r *rng.Rand) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	idx := (*buf)[:n]
	if frac >= 1 {
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	perm := r.Perm(n)
	cols := idx[:k]
	copy(cols, perm[:k])
	sort.Ints(cols)
	return cols
}

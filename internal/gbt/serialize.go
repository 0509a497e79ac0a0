package gbt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"iotaxo/internal/modelfile"
)

// Serialization: a trained model is written as a modelfile artifact so a
// tuned model can be deployed separately from its training pipeline (the
// paper's motivating use case is production deployment of I/O models). The
// artifact is the model's Flat itself, its arrays stored as bit patterns,
// so a load decodes the arrays the walks read in one pass, parses no
// number and compiles nothing; every byte it serves has been checked.

// binHeader is the artifact's header: the model's scalar fields, each
// tree's node count and each feature's threshold count. The body is the
// gain vector (NFeature float64), then every feature's thresholds in order
// (float64), then every tree's nodes in order, nodeBytes each: feature,
// tree-local left and right as int32, cut as one byte, leaf as float64.
type binHeader struct {
	Version  int      `json:"version"`
	Params   Params   `json:"params"`
	Bias     float64  `json:"bias"`
	NFeature int      `json:"n_feature"`
	TreeLens []uint32 `json:"tree_lens"`
	// EdgeLens is never empty in a version-2 header (NFeature > 0), so
	// omitting it when empty leaves a version-1 header canonical, and that
	// file is refused by its version.
	EdgeLens []uint16 `json:"edge_lens,omitempty"`
}

const (
	binMagic  = "IOTAXGBT"
	nodeBytes = 3*4 + 1 + 8
)

// serializationVersion guards format evolution. Version 1 stored per-tree
// nodes with raw thresholds; it is refused with ErrLegacyFormat.
const serializationVersion = 2

// ErrLegacyFormat is ReadBinary's refusal of an artifact written in an
// older layout than this build reads; re-saving the model rewrites it.
var ErrLegacyFormat = errors.New("gbt: model artifact predates the flat layout")

// header returns the model's header.
func (m *Model) header() binHeader {
	f := &m.flat
	h := binHeader{Version: serializationVersion, Params: m.params, Bias: f.bias, NFeature: f.nFeature,
		TreeLens: make([]uint32, len(f.roots)), EdgeLens: make([]uint16, len(f.edges))}
	for t, root := range f.roots {
		h.TreeLens[t] = uint32(f.treeEnd(t) - root)
	}
	for ft, e := range f.edges {
		h.EdgeLens[ft] = uint16(len(e))
	}
	return h
}

// treeEnd returns the index one past tree t's last node.
func (f *Flat) treeEnd(t int) int32 {
	if t+1 < len(f.roots) {
		return f.roots[t+1]
	}
	return int32(len(f.feature))
}

// WriteBinary serializes the model as a modelfile artifact (see binHeader).
// Every number is stored as its bit pattern, so the round trip is exact.
func (m *Model) WriteBinary(w io.Writer) error {
	f := &m.flat
	h := m.header()
	nEdges := 0
	for _, e := range f.edges {
		nEdges += len(e)
	}
	b, err := modelfile.Begin(binMagic, h, 8*(len(m.gain)+nEdges)+nodeBytes*len(f.feature))
	if err != nil {
		return fmt.Errorf("gbt: encoding model header: %w", err)
	}
	b = modelfile.AppendFloat64s(b, m.gain)
	for _, e := range f.edges {
		b = modelfile.AppendFloat64s(b, e)
	}
	le := binary.LittleEndian
	for t, root := range f.roots {
		for i := root; i < f.treeEnd(t); i++ {
			l, r := f.left[i], f.right[i]
			if f.feature[i] >= 0 {
				l, r = l-root, r-root
			}
			b = le.AppendUint32(b, uint32(f.feature[i]))
			b = le.AppendUint32(b, uint32(l))
			b = le.AppendUint32(b, uint32(r))
			b = append(b, f.cut[i])
			b = le.AppendUint64(b, math.Float64bits(f.leaf[i]))
		}
	}
	_, err = w.Write(modelfile.Seal(b))
	return err
}

// ReadBinary deserializes a model written by WriteBinary and refuses
// anything WriteBinary could not have written. The checksum is verified
// first; the header is checked (checkHead) and its declared sizes must
// account, by division, for exactly the bytes present before anything is
// allocated for them. The body is then decoded in one pass straight into
// the model's Flat, each value checked as it is read: gain finite and
// non-negative; each feature's thresholds finite, strictly ascending and
// each used by some split; a split's feature in range, its cut inside that
// feature's thresholds, its links forward inside its tree and its leaf
// field 0; a leaf's feature -1, its links and cut 0 and its value finite;
// no tree deeper than the params allow. The returned model keeps no slice
// of data.
func ReadBinary(data []byte) (*Model, error) {
	var h binHeader
	body, err := modelfile.Open(binMagic, data, &h)
	if err != nil {
		return nil, fmt.Errorf("gbt: decoding model: %w", err)
	}
	if err := checkHead(h); err != nil {
		return nil, err
	}
	total, nEdges := uint64(0), 0
	for _, n := range h.TreeLens {
		total += uint64(n)
	}
	for _, n := range h.EdgeLens {
		nEdges += int(n) // at most 255 each: checkHead
	}
	// Said by division, so no declared size can overflow its way to a match.
	nodeBody := -1
	if h.NFeature <= len(body)/8 && nEdges <= len(body)/8-h.NFeature {
		nodeBody = len(body) - 8*(h.NFeature+nEdges)
	}
	if nodeBody < 0 || nodeBody%nodeBytes != 0 || uint64(nodeBody/nodeBytes) != total {
		return nil, fmt.Errorf("gbt: header declares %d features, %d thresholds and %d nodes, body has %d bytes", h.NFeature, nEdges, total, len(body))
	}
	widest := uint32(0)
	for _, n := range h.TreeLens {
		widest = max(widest, n)
	}
	// Two blocks hold the model's arrays but cut: floats the gain, the
	// thresholds and the leaves, ints the roots and the links. scratch holds
	// what only the checks need.
	floats := make([]float64, h.NFeature+nEdges+int(total))
	ints := make([]int32, len(h.TreeLens)+3*int(total))
	scratch := make([]int32, h.NFeature+1+int(widest)+(nEdges+31)/32)
	m := &Model{params: h.Params, gain: floats[:h.NFeature:h.NFeature], flat: Flat{
		bias:     h.Bias,
		lr:       h.Params.LearningRate,
		nFeature: h.NFeature,
		leaf:     floats[h.NFeature+nEdges:],
		cut:      make([]uint8, total),
		edges:    make([][]float64, h.NFeature),
	}}
	f := &m.flat
	f.roots, ints = ints[:len(h.TreeLens):len(h.TreeLens)], ints[len(h.TreeLens):]
	f.feature, f.left, f.right = ints[:total:total], ints[total:2*total:2*total], ints[2*total:]
	body = modelfile.Float64s(m.gain, body)
	for ft, g := range m.gain {
		if !finite(g) || g < 0 {
			return nil, fmt.Errorf("gbt: invalid gain %v for feature %d", g, ft)
		}
	}
	backing := floats[h.NFeature : h.NFeature+nEdges : h.NFeature+nEdges]
	body = modelfile.Float64s(backing, body)
	// edgeAt[ft] is feature ft's first threshold's index in backing, whose
	// used bits mark the thresholds some split cuts at; level[i] is the
	// depth of the tree's node i (links point forward, so every parent of a
	// node precedes it).
	edgeAt, scratch := scratch[:h.NFeature+1], scratch[h.NFeature+1:]
	level, used := scratch[:widest], scratch[widest:]
	for ft, n := range h.EdgeLens {
		e := backing[edgeAt[ft] : edgeAt[ft]+int32(n) : edgeAt[ft]+int32(n)]
		edgeAt[ft+1] = edgeAt[ft] + int32(n)
		for k, v := range e {
			if !finite(v) || k > 0 && !(e[k-1] < v) {
				return nil, fmt.Errorf("gbt: feature %d threshold %d is %v: it must be finite and above the one before", ft, k, v)
			}
		}
		f.edges[ft] = e
	}
	le := binary.LittleEndian
	base := int32(0)
	for t, n := range h.TreeLens {
		if n == 0 {
			return nil, fmt.Errorf("gbt: tree %d empty", t)
		}
		f.roots[t] = base
		clear(level[:n])
		for i := int32(0); i < int32(n); i, base = i+1, base+1 {
			rec := body[:nodeBytes:nodeBytes]
			body = body[nodeBytes:]
			ft := int32(le.Uint32(rec[0:4]))
			l, r := le.Uint32(rec[4:8]), le.Uint32(rec[8:12])
			c := rec[12]
			v := math.Float64frombits(le.Uint64(rec[13:21]))
			if ft < 0 {
				if ft != -1 || l != 0 || r != 0 || c != 0 || !finite(v) {
					return nil, fmt.Errorf("gbt: tree %d node %d: leaf of feature %d, links (%d,%d), cut %d and value %v is not canonical", t, i, ft, l, r, c, v)
				}
				f.feature[base], f.leaf[base] = -1, v
				f.depth = max(f.depth, level[i])
				continue
			}
			if ft >= int32(h.NFeature) {
				return nil, fmt.Errorf("gbt: tree %d node %d: feature %d out of range [0,%d)", t, i, ft, h.NFeature)
			}
			// Strictly forward child links make cycles (and walks that do
			// not end) unrepresentable.
			if l <= uint32(i) || r <= uint32(i) || l >= n || r >= n {
				return nil, fmt.Errorf("gbt: tree %d node %d: child indices (%d,%d) must point forward within [%d,%d)", t, i, l, r, i+1, n)
			}
			if int(c) >= len(f.edges[ft]) || math.Float64bits(v) != 0 {
				return nil, fmt.Errorf("gbt: tree %d node %d: cut %d of feature %d's %d thresholds, leaf field %v", t, i, c, ft, len(f.edges[ft]), v)
			}
			k := uint32(edgeAt[ft]) + uint32(c)
			used[k>>5] |= 1 << (k & 31)
			f.feature[base], f.left[base], f.right[base], f.cut[base] = ft, f.roots[t]+int32(l), f.roots[t]+int32(r), c
			level[l] = max(level[l], level[i]+1)
			level[r] = max(level[r], level[i]+1)
		}
	}
	if int(f.depth) > h.Params.MaxDepth {
		return nil, fmt.Errorf("gbt: trees %d deep for MaxDepth %d", f.depth, h.Params.MaxDepth)
	}
	for k := range nEdges {
		if used[k/32]&(1<<(k%32)) == 0 {
			return nil, fmt.Errorf("gbt: threshold %d is cut at by no split", k)
		}
	}
	return m, nil
}

// checkHead checks a decoded header before anything is allocated for it.
// Model files may come from outside the training pipeline (the serving
// registry loads whatever is on disk), so every field is checked: version
// match, valid hyperparameters, one threshold count of at most 255 a
// feature, and at least one tree. (The bias is finite: JSON has no other
// number.)
func checkHead(h binHeader) error {
	if h.Version < serializationVersion {
		return fmt.Errorf("%w: it is version %d, this build reads version %d", ErrLegacyFormat, h.Version, serializationVersion)
	}
	if h.Version != serializationVersion {
		return fmt.Errorf("gbt: unsupported model version %d (this build reads version %d)", h.Version, serializationVersion)
	}
	if err := h.Params.Validate(); err != nil {
		return fmt.Errorf("gbt: model file carries invalid params: %w", err)
	}
	if h.NFeature <= 0 {
		return fmt.Errorf("gbt: model has %d features", h.NFeature)
	}
	if len(h.EdgeLens) != h.NFeature {
		return fmt.Errorf("gbt: %d threshold counts for %d features", len(h.EdgeLens), h.NFeature)
	}
	for ft, n := range h.EdgeLens {
		// A cut of 255 must stay free for the always-right NaN code.
		if n > 255 {
			return fmt.Errorf("%w: feature %d has %d, at most 255 fit a uint8 code", ErrTooManyThresholds, ft, n)
		}
	}
	// No trees has two canonical headers (null and []) and no use.
	if len(h.TreeLens) == 0 {
		return fmt.Errorf("gbt: model has no trees")
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf: whether its exponent
// bits are not all ones.
func finite(v float64) bool { return math.Float64bits(v)&(0x7ff<<52) != 0x7ff<<52 }

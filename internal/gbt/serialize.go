package gbt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"iotaxo/internal/modelfile"
)

// Serialization: trained models round-trip through JSON so a tuned model
// can be deployed separately from its training pipeline (the paper's
// motivating use case is production deployment of I/O models), and through
// a binary form of the same fields (WriteBinary) that loads without parsing
// a number. Both decoders end in build, which holds every check.

// jsonNode mirrors node with exported fields.
type jsonNode struct {
	Feature   int32   `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int32   `json:"l,omitempty"`
	Right     int32   `json:"r,omitempty"`
	Value     float64 `json:"v,omitempty"`
}

// jsonModel is the serialized form.
type jsonModel struct {
	Version  int          `json:"version"`
	Params   Params       `json:"params"`
	Bias     float64      `json:"bias"`
	NFeature int          `json:"n_feature"`
	Gain     []float64    `json:"gain"`
	Trees    [][]jsonNode `json:"trees"`
}

// binHeader is the binary artifact's header: jsonModel with Gain and Trees
// left nil, and each tree's node count. The body is the gain vector
// (NFeature float64) followed by every tree's nodes in order, nodeBytes
// each: feature, left, right as int32, then threshold and value as float64.
type binHeader struct {
	jsonModel
	TreeLens []uint32 `json:"tree_lens"`
}

const (
	binMagic  = "IOTAXGBT"
	nodeBytes = 3*4 + 2*8
)

// serializationVersion guards format evolution.
const serializationVersion = 1

// header returns the serialized form without its bulk slices.
func (m *Model) header() jsonModel {
	return jsonModel{Version: serializationVersion, Params: m.params, Bias: m.bias, NFeature: m.nFeature}
}

// WriteJSON serializes the model.
func (m *Model) WriteJSON(w io.Writer) error {
	jm := m.header()
	jm.Gain = m.gain
	jm.Trees = make([][]jsonNode, len(m.trees))
	for ti, tr := range m.trees {
		nodes := make([]jsonNode, len(tr.nodes))
		for ni, n := range tr.nodes {
			nodes[ni] = jsonNode{Feature: n.feature, Threshold: n.threshold, Left: n.left, Right: n.right, Value: n.value}
		}
		jm.Trees[ti] = nodes
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jm)
}

// WriteBinary serializes the model as a modelfile artifact (see binHeader).
// Every number is stored as its bit pattern, so the round trip is exact.
func (m *Model) WriteBinary(w io.Writer) error {
	h := binHeader{jsonModel: m.header(), TreeLens: make([]uint32, len(m.trees))}
	total := 0
	for ti, tr := range m.trees {
		h.TreeLens[ti] = uint32(len(tr.nodes))
		total += len(tr.nodes)
	}
	b, err := modelfile.Begin(binMagic, h, 8*len(m.gain)+nodeBytes*total)
	if err != nil {
		return fmt.Errorf("gbt: encoding model header: %w", err)
	}
	b = modelfile.AppendFloat64s(b, m.gain)
	le := binary.LittleEndian
	for _, tr := range m.trees {
		for _, n := range tr.nodes {
			b = le.AppendUint32(b, uint32(n.feature))
			b = le.AppendUint32(b, uint32(n.left))
			b = le.AppendUint32(b, uint32(n.right))
			b = le.AppendUint64(b, math.Float64bits(n.threshold))
			b = le.AppendUint64(b, math.Float64bits(n.value))
		}
	}
	_, err = w.Write(modelfile.Seal(b))
	return err
}

// ReadBinary deserializes a model written by WriteBinary. The checksum is
// verified first, and the header's declared sizes must account for exactly
// the bytes present before anything is allocated for them; the records are
// then decoded straight into the one node block the model keeps, and what
// the numbers say is checked by the same build as a JSON model.
func ReadBinary(data []byte) (*Model, error) {
	var h binHeader
	body, err := modelfile.Open(binMagic, data, &h)
	if err != nil {
		return nil, fmt.Errorf("gbt: decoding model: %w", err)
	}
	if h.Gain != nil || h.Trees != nil {
		return nil, fmt.Errorf("gbt: decoding model: header carries gain or trees")
	}
	total := uint64(0)
	for _, n := range h.TreeLens {
		total += uint64(n)
	}
	// Said by division, so no declared size can overflow its way to a match.
	nodeBody := -1
	if h.NFeature > 0 && h.NFeature <= len(body)/8 {
		nodeBody = len(body) - 8*h.NFeature
	}
	if nodeBody < 0 || nodeBody%nodeBytes != 0 || uint64(nodeBody/nodeBytes) != total {
		return nil, fmt.Errorf("gbt: header declares %d features and %d nodes, body has %d bytes", h.NFeature, total, len(body))
	}
	h.Gain = make([]float64, h.NFeature)
	body = modelfile.Float64s(h.Gain, body)
	nodes := make([]node, total)
	le := binary.LittleEndian
	for i := range nodes {
		rec := body[nodeBytes*i:]
		nodes[i] = node{
			feature:   int32(le.Uint32(rec)),
			left:      int32(le.Uint32(rec[4:])),
			right:     int32(le.Uint32(rec[8:])),
			threshold: math.Float64frombits(le.Uint64(rec[12:])),
			value:     math.Float64frombits(le.Uint64(rec[20:])),
		}
	}
	trees := make([]tree, len(h.TreeLens))
	for ti, n := range h.TreeLens {
		trees[ti].nodes, nodes = nodes[:n:n], nodes[n:]
	}
	return build(h.jsonModel, trees)
}

// ReadJSON deserializes a model written by WriteJSON; anything but
// whitespace after the value is an error.
func ReadJSON(r io.Reader) (*Model, error) {
	var jm jsonModel
	if err := modelfile.DecodeJSON(r, &jm); err != nil {
		return nil, fmt.Errorf("gbt: decoding model: %w", err)
	}
	trees := make([]tree, len(jm.Trees))
	for ti, jns := range jm.Trees {
		nodes := make([]node, len(jns))
		for ni, jn := range jns {
			nodes[ni] = node{feature: jn.Feature, threshold: jn.Threshold, left: jn.Left, right: jn.Right, value: jn.Value}
		}
		trees[ti].nodes = nodes
	}
	return build(jm, trees)
}

// build turns a decoded model — jm's scalar fields and gain, and trees, which
// it checks in place and adopts (jm.Trees is not read) — into a usable one.
// Model files may come from outside the training pipeline (the serving
// registry loads whatever is on disk), so every structural invariant is
// checked: version match, valid hyperparameters, finite numerics, gain aligned
// with the feature count, and trees whose child indices only point forward —
// which rules out cycles and guarantees Predict terminates.
func build(jm jsonModel, trees []tree) (*Model, error) {
	if jm.Version != serializationVersion {
		return nil, fmt.Errorf("gbt: unsupported model version %d (this build reads version %d)", jm.Version, serializationVersion)
	}
	if err := jm.Params.Validate(); err != nil {
		return nil, fmt.Errorf("gbt: model file carries invalid params: %w", err)
	}
	if jm.NFeature <= 0 {
		return nil, fmt.Errorf("gbt: model has %d features", jm.NFeature)
	}
	if !finite(jm.Bias) {
		return nil, fmt.Errorf("gbt: non-finite bias %v", jm.Bias)
	}
	if jm.Gain != nil && len(jm.Gain) != jm.NFeature {
		return nil, fmt.Errorf("gbt: gain has %d entries for %d features", len(jm.Gain), jm.NFeature)
	}
	for i, g := range jm.Gain {
		if !finite(g) || g < 0 {
			return nil, fmt.Errorf("gbt: invalid gain %v for feature %d", g, i)
		}
	}
	m := &Model{
		params:   jm.Params,
		bias:     jm.Bias,
		trees:    trees,
		nFeature: jm.NFeature,
		gain:     jm.Gain,
	}
	if m.gain == nil {
		m.gain = make([]float64, jm.NFeature)
	}
	for ti, tr := range trees {
		if len(tr.nodes) == 0 {
			return nil, fmt.Errorf("gbt: tree %d empty", ti)
		}
		for ni, n := range tr.nodes {
			// Both fields of every node: the binary form can carry what JSON
			// cannot (an infinite threshold, a NaN in the field a node does
			// not use), and an accepted model must be writable either way.
			if !finite(n.threshold) || !finite(n.value) {
				return nil, fmt.Errorf("gbt: tree %d node %d: non-finite threshold %v or value %v", ti, ni, n.threshold, n.value)
			}
			if n.feature >= 0 {
				if int(n.feature) >= jm.NFeature {
					return nil, fmt.Errorf("gbt: tree %d node %d: feature %d out of range [0,%d)", ti, ni, n.feature, jm.NFeature)
				}
				// The builder appends children after their parent, so valid
				// trees have strictly forward child links; enforcing that
				// here makes cycles (and non-terminating Predict walks)
				// unrepresentable.
				if int(n.left) <= ni || int(n.right) <= ni ||
					int(n.left) >= len(tr.nodes) || int(n.right) >= len(tr.nodes) {
					return nil, fmt.Errorf("gbt: tree %d node %d: child indices (%d,%d) must point forward within [%d,%d)", ti, ni, n.left, n.right, ni+1, len(tr.nodes))
				}
			}
		}
	}
	return m, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

package gbt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"iotaxo/internal/modelfile"
)

// Serialization: a trained model is written as a modelfile artifact so a
// tuned model can be deployed separately from its training pipeline (the
// paper's motivating use case is production deployment of I/O models). The
// model's own arrays are stored as bit patterns, so it loads without parsing
// a number, and ReadBinary and build make the same checks (checkHead,
// checkTree).

// binHeader is the artifact's header: the model's scalar fields and each
// tree's node count. The body is the gain vector (NFeature float64) followed
// by every tree's nodes in order, nodeBytes each: feature, left, right as
// int32, then threshold and value as float64.
type binHeader struct {
	Version  int      `json:"version"`
	Params   Params   `json:"params"`
	Bias     float64  `json:"bias"`
	NFeature int      `json:"n_feature"`
	TreeLens []uint32 `json:"tree_lens"`
}

const (
	binMagic  = "IOTAXGBT"
	nodeBytes = 3*4 + 2*8
)

// serializationVersion guards format evolution.
const serializationVersion = 1

// header returns the model's header.
func (m *Model) header() binHeader {
	h := binHeader{Version: serializationVersion, Params: m.params, Bias: m.bias, NFeature: m.nFeature, TreeLens: make([]uint32, len(m.trees))}
	for ti, tr := range m.trees {
		h.TreeLens[ti] = uint32(len(tr.nodes))
	}
	return h
}

// WriteBinary serializes the model as a modelfile artifact (see binHeader).
// Every number is stored as its bit pattern, so the round trip is exact.
func (m *Model) WriteBinary(w io.Writer) error {
	h := m.header()
	total := 0
	for _, n := range h.TreeLens {
		total += int(n)
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
// the bytes present before anything is allocated for them. The header and
// the gain vector are checked before the node block is allocated; each tree
// is then decoded straight into that block and checked by checkTree while
// its records are still in cache, so the bytes are walked once.
func ReadBinary(data []byte) (*Model, error) {
	var h binHeader
	body, err := modelfile.Open(binMagic, data, &h)
	if err != nil {
		return nil, fmt.Errorf("gbt: decoding model: %w", err)
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
	gain := make([]float64, h.NFeature)
	body = modelfile.Float64s(gain, body)
	if err := checkHead(h, gain, len(h.TreeLens)); err != nil {
		return nil, err
	}
	nodes := make([]node, total)
	trees := make([]tree, len(h.TreeLens))
	le := binary.LittleEndian
	for ti, n := range h.TreeLens {
		tn := nodes[:n:n]
		nodes = nodes[n:]
		for i := range tn {
			// Field by field: a node literal is assembled on the stack and
			// copied, which stalls on every record.
			rec, nd := body[:nodeBytes:nodeBytes], &tn[i]
			body = body[nodeBytes:]
			nd.feature = int32(le.Uint32(rec[0:4]))
			nd.left = int32(le.Uint32(rec[4:8]))
			nd.right = int32(le.Uint32(rec[8:12]))
			nd.threshold = math.Float64frombits(le.Uint64(rec[12:20]))
			nd.value = math.Float64frombits(le.Uint64(rec[20:28]))
		}
		if err := checkTree(ti, tn, h.NFeature); err != nil {
			return nil, err
		}
		trees[ti].nodes = tn
	}
	return &Model{params: h.Params, bias: h.Bias, trees: trees, nFeature: h.NFeature, gain: gain}, nil
}

// build turns a decoded model — h's scalar fields (h.TreeLens is not read),
// gain, and trees, which it checks in place and adopts — into a usable one,
// through the same checks ReadBinary makes: checkHead, then checkTree for
// every tree.
func build(h binHeader, gain []float64, trees []tree) (*Model, error) {
	if err := checkHead(h, gain, len(trees)); err != nil {
		return nil, err
	}
	for ti, tr := range trees {
		if err := checkTree(ti, tr.nodes, h.NFeature); err != nil {
			return nil, err
		}
	}
	return &Model{params: h.Params, bias: h.Bias, trees: trees, nFeature: h.NFeature, gain: gain}, nil
}

// checkHead checks a decoded model's scalar fields, its gain vector and its
// tree count. Model files may come from outside the training pipeline (the
// serving registry loads whatever is on disk), so every structural
// invariant is checked, here and in checkTree: version match, valid
// hyperparameters, finite numerics, gain aligned with the feature count, and
// trees whose child indices only point forward — which rules out cycles and
// guarantees Predict terminates.
func checkHead(h binHeader, gain []float64, numTrees int) error {
	if h.Version != serializationVersion {
		return fmt.Errorf("gbt: unsupported model version %d (this build reads version %d)", h.Version, serializationVersion)
	}
	if err := h.Params.Validate(); err != nil {
		return fmt.Errorf("gbt: model file carries invalid params: %w", err)
	}
	if h.NFeature <= 0 {
		return fmt.Errorf("gbt: model has %d features", h.NFeature)
	}
	if !finite(h.Bias) {
		return fmt.Errorf("gbt: non-finite bias %v", h.Bias)
	}
	if len(gain) != h.NFeature {
		return fmt.Errorf("gbt: gain has %d entries for %d features", len(gain), h.NFeature)
	}
	for i, g := range gain {
		if !finite(g) || g < 0 {
			return fmt.Errorf("gbt: invalid gain %v for feature %d", g, i)
		}
	}
	// No trees has two canonical headers (null and []) and no use.
	if numTrees == 0 {
		return fmt.Errorf("gbt: model has no trees")
	}
	return nil
}

// checkTree checks tree ti's nodes against a model of nFeature features.
func checkTree(ti int, nodes []node, nFeature int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("gbt: tree %d empty", ti)
	}
	for ni := range nodes {
		n := &nodes[ni]
		// Both fields of every node, the one a node does not use too: an
		// accepted model has one encoding and predicts finite values.
		if !finite(n.threshold) || !finite(n.value) {
			return fmt.Errorf("gbt: tree %d node %d: non-finite threshold %v or value %v", ti, ni, n.threshold, n.value)
		}
		if n.feature >= 0 {
			if int(n.feature) >= nFeature {
				return fmt.Errorf("gbt: tree %d node %d: feature %d out of range [0,%d)", ti, ni, n.feature, nFeature)
			}
			// The builder appends children after their parent, so valid
			// trees have strictly forward child links; enforcing that here
			// makes cycles (and non-terminating Predict walks)
			// unrepresentable.
			if int(n.left) <= ni || int(n.right) <= ni ||
				int(n.left) >= len(nodes) || int(n.right) >= len(nodes) {
				return fmt.Errorf("gbt: tree %d node %d: child indices (%d,%d) must point forward within [%d,%d)", ti, ni, n.left, n.right, ni+1, len(nodes))
			}
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf: whether its exponent
// bits are not all ones.
func finite(v float64) bool { return math.Float64bits(v)&(0x7ff<<52) != 0x7ff<<52 }

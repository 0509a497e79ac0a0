package nn

import (
	"fmt"
	"io"
	"math"

	"iotaxo/internal/mat"
	"iotaxo/internal/modelfile"
)

// Serialization: a trained network is written as a modelfile artifact so
// deep-ensemble members can be deployed to the serving registry alongside
// the GBT models they guard. Only inference state is kept — Adam moments are
// training-time scratch and are dropped; a deserialized model predicts
// identically but cannot resume training. The weights are stored as bit
// patterns, and ReadBinary ends in build, which holds every check.

// layerShape is one dense layer's shape in the header.
type layerShape struct {
	In  int `json:"in"`
	Out int `json:"out"`
}

// binHeader is the artifact's header; the body is, layer by layer, the
// In*Out weights (row-major) then the Out biases as float64.
type binHeader struct {
	Version int          `json:"version"`
	Params  Params       `json:"params"`
	NIn     int          `json:"n_in"`
	YMean   float64      `json:"y_mean"`
	YStd    float64      `json:"y_std"`
	Layers  []layerShape `json:"layers"`
}

// nnSerializationVersion guards format evolution.
const nnSerializationVersion = 1

// binMagic opens an artifact.
const binMagic = "IOTAX_NN"

// header returns the model's header.
func (m *Model) header() binHeader {
	h := binHeader{
		Version: nnSerializationVersion,
		Params:  m.params,
		NIn:     m.nIn,
		YMean:   m.yMean,
		YStd:    m.yStd,
		Layers:  make([]layerShape, len(m.layers)),
	}
	for i, l := range m.layers {
		h.Layers[i] = layerShape{In: l.w.Rows, Out: l.w.Cols}
	}
	return h
}

// WriteBinary serializes the model's inference state as a modelfile
// artifact (see binHeader); the round trip is bit-exact.
func (m *Model) WriteBinary(w io.Writer) error {
	n := 0
	for _, l := range m.layers {
		n += len(l.w.Data) + len(l.b)
	}
	b, err := modelfile.Begin(binMagic, m.header(), 8*n)
	if err != nil {
		return fmt.Errorf("nn: encoding model header: %w", err)
	}
	for _, l := range m.layers {
		b = modelfile.AppendFloat64s(modelfile.AppendFloat64s(b, l.w.Data), l.b)
	}
	_, err = w.Write(modelfile.Seal(b))
	return err
}

// ReadBinary deserializes a model written by WriteBinary. The checksum is
// verified first, and each layer's declared shape must fit in the bytes
// still unread before its weights are allocated; the layer chain and the
// values are then checked by build.
func ReadBinary(data []byte) (*Model, error) {
	var h binHeader
	body, err := modelfile.Open(binMagic, data, &h)
	if err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	layers := make([]layer, len(h.Layers))
	for i, s := range h.Layers {
		// (In+1)*Out floats must be present, said without multiplying.
		if s.In <= 0 || s.Out <= 0 || s.In >= len(body)/8/s.Out {
			return nil, fmt.Errorf("nn: layer %d declares %dx%d, %d bytes left", i, s.In, s.Out, len(body))
		}
		l := layer{w: &mat.Matrix{Rows: s.In, Cols: s.Out, Data: make([]float64, s.In*s.Out)}, b: make([]float64, s.Out)}
		body = modelfile.Float64s(l.b, modelfile.Float64s(l.w.Data, body))
		layers[i] = l
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("nn: %d bytes after the last layer", len(body))
	}
	return build(h, layers)
}

// build turns a decoded header and its layers, which it checks and adopts,
// into a usable model (h.Layers is not read), validating the layer topology
// against the recorded hyperparameters: the hidden widths, input width, and
// head width must chain correctly and every weight must be finite, since
// model files may come from an untrusted serving directory.
func build(h binHeader, layers []layer) (*Model, error) {
	if h.Version != nnSerializationVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d (this build reads version %d)", h.Version, nnSerializationVersion)
	}
	if err := h.Params.Validate(); err != nil {
		return nil, fmt.Errorf("nn: model file carries invalid params: %w", err)
	}
	if h.NIn <= 0 {
		return nil, fmt.Errorf("nn: model has %d inputs", h.NIn)
	}
	if h.YStd <= 0 || math.IsNaN(h.YStd) || math.IsInf(h.YStd, 0) ||
		math.IsNaN(h.YMean) || math.IsInf(h.YMean, 0) {
		return nil, fmt.Errorf("nn: invalid target statistics (mean %v, std %v)", h.YMean, h.YStd)
	}
	// The layer chain must be nIn -> Hidden... -> outDim.
	wantSizes := append([]int{h.NIn}, h.Params.Hidden...)
	wantSizes = append(wantSizes, h.Params.outDim())
	if len(layers) != len(wantSizes)-1 {
		return nil, fmt.Errorf("nn: %d layers for %d hidden widths", len(layers), len(h.Params.Hidden))
	}
	for i, l := range layers {
		if l.w.Rows != wantSizes[i] || l.w.Cols != wantSizes[i+1] {
			return nil, fmt.Errorf("nn: layer %d is %dx%d, want %dx%d", i, l.w.Rows, l.w.Cols, wantSizes[i], wantSizes[i+1])
		}
		if len(l.w.Data) != l.w.Rows*l.w.Cols {
			return nil, fmt.Errorf("nn: layer %d has %d weights for %dx%d", i, len(l.w.Data), l.w.Rows, l.w.Cols)
		}
		if len(l.b) != l.w.Cols {
			return nil, fmt.Errorf("nn: layer %d has %d biases for width %d", i, len(l.b), l.w.Cols)
		}
		for _, v := range l.w.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: layer %d has a non-finite weight", i)
			}
		}
		for _, v := range l.b {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: layer %d has a non-finite bias", i)
			}
		}
	}
	return &Model{params: h.Params, nIn: h.NIn, yMean: h.YMean, yStd: h.YStd, layers: layers}, nil
}

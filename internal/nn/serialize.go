package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"iotaxo/internal/mat"
	"iotaxo/internal/modelfile"
)

// Serialization: trained networks round-trip through JSON so deep-ensemble
// members can be deployed to the serving registry alongside the GBT models
// they guard. Only inference state is kept — Adam moments are training-time
// scratch and are dropped; a deserialized model predicts identically but
// cannot resume training. WriteBinary persists the same fields with the
// weights as bit patterns; both decoders end in build, which holds every
// check.

// jsonLayer is one dense layer's inference state.
type jsonLayer struct {
	In     int       `json:"in"`
	Out    int       `json:"out"`
	Weight []float64 `json:"w"` // row-major In x Out
	Bias   []float64 `json:"b"`
}

// jsonNN is the serialized form of a Model.
type jsonNN struct {
	Version int         `json:"version"`
	Params  Params      `json:"params"`
	NIn     int         `json:"n_in"`
	YMean   float64     `json:"y_mean"`
	YStd    float64     `json:"y_std"`
	Layers  []jsonLayer `json:"layers"`
}

// nnSerializationVersion guards format evolution.
const nnSerializationVersion = 1

// binMagic opens a binary artifact. Its header is jsonNN with every layer's
// Weight and Bias left nil; the body is, layer by layer, the In*Out weights
// then the Out biases as float64.
const binMagic = "IOTAX_NN"

// serialized returns the serialized form, with or without the weights.
func (m *Model) serialized(weights bool) jsonNN {
	jm := jsonNN{
		Version: nnSerializationVersion,
		Params:  m.params,
		NIn:     m.nIn,
		YMean:   m.yMean,
		YStd:    m.yStd,
		Layers:  make([]jsonLayer, len(m.layers)),
	}
	for i, l := range m.layers {
		jm.Layers[i] = jsonLayer{In: l.w.Rows, Out: l.w.Cols}
		if weights {
			jm.Layers[i].Weight, jm.Layers[i].Bias = l.w.Data, l.b
		}
	}
	return jm
}

// WriteJSON serializes the model's inference state.
func (m *Model) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(m.serialized(true))
}

// WriteBinary serializes the model's inference state as a modelfile
// artifact (see binMagic); the round trip is bit-exact.
func (m *Model) WriteBinary(w io.Writer) error {
	n := 0
	for _, l := range m.layers {
		n += len(l.w.Data) + len(l.b)
	}
	b, err := modelfile.Begin(binMagic, m.serialized(false), 8*n)
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
// values are then checked by the same build as a JSON model.
func ReadBinary(data []byte) (*Model, error) {
	var jm jsonNN
	body, err := modelfile.Open(binMagic, data, &jm)
	if err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	for i := range jm.Layers {
		l := &jm.Layers[i]
		if l.Weight != nil || l.Bias != nil {
			return nil, fmt.Errorf("nn: decoding model: header carries layer %d's weights", i)
		}
		// (In+1)*Out floats must be present, said without multiplying.
		if l.In <= 0 || l.Out <= 0 || l.In >= len(body)/8/l.Out {
			return nil, fmt.Errorf("nn: layer %d declares %dx%d, %d bytes left", i, l.In, l.Out, len(body))
		}
		l.Weight, l.Bias = make([]float64, l.In*l.Out), make([]float64, l.Out)
		body = modelfile.Float64s(l.Bias, modelfile.Float64s(l.Weight, body))
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("nn: %d bytes after the last layer", len(body))
	}
	return build(jm)
}

// ReadJSON deserializes a model written by WriteJSON; anything but
// whitespace after the value is an error.
func ReadJSON(r io.Reader) (*Model, error) {
	var jm jsonNN
	if err := modelfile.DecodeJSON(r, &jm); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	return build(jm)
}

// build turns a decoded model into a usable one, validating the layer
// topology against the recorded hyperparameters: the hidden widths, input
// width, and head width must chain correctly and every weight must be
// finite, since model files may come from an untrusted serving directory.
func build(jm jsonNN) (*Model, error) {
	if jm.Version != nnSerializationVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d (this build reads version %d)", jm.Version, nnSerializationVersion)
	}
	if err := jm.Params.Validate(); err != nil {
		return nil, fmt.Errorf("nn: model file carries invalid params: %w", err)
	}
	if jm.NIn <= 0 {
		return nil, fmt.Errorf("nn: model has %d inputs", jm.NIn)
	}
	if jm.YStd <= 0 || math.IsNaN(jm.YStd) || math.IsInf(jm.YStd, 0) ||
		math.IsNaN(jm.YMean) || math.IsInf(jm.YMean, 0) {
		return nil, fmt.Errorf("nn: invalid target statistics (mean %v, std %v)", jm.YMean, jm.YStd)
	}
	// The layer chain must be nIn -> Hidden... -> outDim.
	wantSizes := append([]int{jm.NIn}, jm.Params.Hidden...)
	wantSizes = append(wantSizes, jm.Params.outDim())
	if len(jm.Layers) != len(wantSizes)-1 {
		return nil, fmt.Errorf("nn: %d layers for %d hidden widths", len(jm.Layers), len(jm.Params.Hidden))
	}
	m := &Model{params: jm.Params, nIn: jm.NIn, yMean: jm.YMean, yStd: jm.YStd}
	for i, jl := range jm.Layers {
		if jl.In != wantSizes[i] || jl.Out != wantSizes[i+1] {
			return nil, fmt.Errorf("nn: layer %d is %dx%d, want %dx%d", i, jl.In, jl.Out, wantSizes[i], wantSizes[i+1])
		}
		if len(jl.Weight) != jl.In*jl.Out {
			return nil, fmt.Errorf("nn: layer %d has %d weights for %dx%d", i, len(jl.Weight), jl.In, jl.Out)
		}
		if len(jl.Bias) != jl.Out {
			return nil, fmt.Errorf("nn: layer %d has %d biases for width %d", i, len(jl.Bias), jl.Out)
		}
		for _, v := range jl.Weight {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: layer %d has a non-finite weight", i)
			}
		}
		for _, v := range jl.Bias {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: layer %d has a non-finite bias", i)
			}
		}
		l := layer{
			w: &mat.Matrix{Rows: jl.In, Cols: jl.Out, Data: append([]float64(nil), jl.Weight...)},
			b: append([]float64(nil), jl.Bias...),
		}
		m.layers = append(m.layers, l)
	}
	return m, nil
}

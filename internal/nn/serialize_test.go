package nn

import (
	"math"
	"strings"
	"testing"

	"iotaxo/internal/mat"
	"iotaxo/internal/rng"
)

// serializeFixture trains a small heteroscedastic network on a noisy line.
func serializeFixture(t *testing.T) (*Model, [][]float64) {
	t.Helper()
	r := rng.New(7)
	n := 400
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a, b := r.Norm(), r.Norm()
		rows[i] = []float64{a, b}
		y[i] = 2*a - b + 0.1*r.Norm()
	}
	p := DefaultParams()
	p.Hidden = []int{16}
	p.Epochs = 8
	p.Heteroscedastic = true
	m, err := Train(p, rows, y)
	if err != nil {
		t.Fatal(err)
	}
	return m, rows
}

// buildCase edits one part of a trained model before it reaches build.
type buildCase struct {
	edit func(h *binHeader, layers []layer)
	want string
}

// checkBuildRejects applies each edit to a copy of m and requires build to
// refuse it with an error naming the wanted text.
func checkBuildRejects(t *testing.T, m *Model, cases map[string]buildCase) {
	t.Helper()
	if _, err := build(m.header(), m.layers); err != nil {
		t.Fatalf("trained model rejected: %v", err)
	}
	for name, c := range cases {
		h, layers := m.header(), append([]layer(nil), m.layers...)
		c.edit(&h, layers)
		if got, err := build(h, layers); err == nil || got != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// TestBuildRejectsMalformedModels covers the well-typed but malformed models
// an untrusted serving directory could hold, at build, where every decoded
// model ends.
func TestBuildRejectsMalformedModels(t *testing.T) {
	m, _ := serializeFixture(t)
	checkBuildRejects(t, m, map[string]buildCase{
		"future version":  {func(h *binHeader, _ []layer) { h.Version = 3 }, "version"},
		"zero inputs":     {func(h *binHeader, _ []layer) { h.NIn = 0 }, "0 inputs"},
		"zero y std":      {func(h *binHeader, _ []layer) { h.YStd = 0 }, "target statistics"},
		"NaN y mean":      {func(h *binHeader, _ []layer) { h.YMean = math.NaN() }, "target statistics"},
		"bad params":      {func(h *binHeader, _ []layer) { h.Params.Epochs = 0 }, "invalid params"},
		"layer count":     {func(h *binHeader, _ []layer) { h.Params.Hidden = []int{16, 16} }, "2 layers for 2 hidden widths"},
		"layer chain":     {func(h *binHeader, _ []layer) { h.NIn = 3 }, "layer 0 is 2x16, want 3x16"},
		"infinite weight": {func(_ *binHeader, l []layer) { l[1].w = infAt(l[1].w) }, "layer 1 has a non-finite weight"},
	})
}

// TestBuildRejectsWrongWeightCount covers layers whose weight or bias vectors
// do not match their declared shape.
func TestBuildRejectsWrongWeightCount(t *testing.T) {
	m, _ := serializeFixture(t)
	checkBuildRejects(t, m, map[string]buildCase{
		"weight count": {func(_ *binHeader, l []layer) {
			l[0].w = &mat.Matrix{Rows: l[0].w.Rows, Cols: l[0].w.Cols, Data: l[0].w.Data[1:]}
		}, "layer 0 has 31 weights for 2x16"},
		"bias count": {func(_ *binHeader, l []layer) { l[1].b = l[1].b[:1] }, "layer 1 has 1 biases"},
	})
}

// infAt returns a copy of w with its last weight +Inf.
func infAt(w *mat.Matrix) *mat.Matrix {
	data := append([]float64(nil), w.Data...)
	data[len(data)-1] = math.Inf(1)
	return &mat.Matrix{Rows: w.Rows, Cols: w.Cols, Data: data}
}

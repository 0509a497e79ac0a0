package gbt

import (
	"math"
	"strings"
	"testing"
)

// buildEdit changes one part of a valid model's layout before it is
// written, as a corrupt or hostile writer could.
type buildEdit func(m *Model)

// validBuildInput is a one-split model over two features that ReadBinary
// accepts once written.
func validBuildInput() handBuilt {
	p := Params{NumTrees: 1, MaxDepth: 2, LearningRate: 0.1, Subsample: 1, ColSample: 1, MinChildWeight: 1, Lambda: 1, NumBins: 64, Seed: 1}
	split := []node{{feature: 0, threshold: 0.5, left: 1, right: 2}, {feature: -1, value: 1}, {feature: -1, value: 2}}
	return handBuilt{p: p, gain: []float64{0, 0}, trees: []tree{{nodes: split}}}
}

// checkBuildRejects applies each edit to a fresh valid model, writes it and
// requires ReadBinary to refuse the artifact with an error naming the
// wanted text.
func checkBuildRejects(t *testing.T, cases map[string]struct {
	edit buildEdit
	want string
}) {
	t.Helper()
	if _, err := ReadBinary(validBuildInput().artifact(t)); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	for name, c := range cases {
		m := validBuildInput().model(t)
		c.edit(m)
		if back, err := ReadBinary(binaryOf(t, m)); err == nil || back != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// TestBuildRejectsHostileModels covers the malformed-but-well-typed models an
// untrusted model directory could hold: cyclic trees that would hang a walk,
// misaligned gain vectors and out-of-range hyperparameters. A structural
// error says where it is.
func TestBuildRejectsHostileModels(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		// A self-loop or backward child link would make a walk spin forever;
		// ReadBinary requires strictly forward links.
		"self-loop child": {func(m *Model) { m.flat.left[0] = 0 }, "tree 0 node 0"},
		"backward child": {func(m *Model) {
			f := &m.flat
			f.feature[0], f.leaf[0], f.left[0], f.right[0] = -1, 1, 0, 0
			f.feature[1], f.leaf[1], f.left[1], f.right[1] = 0, 0, 0, 2
		}, "tree 0 node 1"},
		"gain length":        {func(m *Model) { m.gain = []float64{0, 0, 0} }, "header declares 2 features"},
		"negative gain":      {func(m *Model) { m.gain[0] = -1 }, "invalid gain"},
		"infinite value":     {func(m *Model) { m.flat.leaf[2] = math.Inf(1) }, "tree 0 node 2"},
		"zero learning rate": {func(m *Model) { m.params.LearningRate = 0 }, "invalid params"},
		"hostile depth":      {func(m *Model) { m.params.MaxDepth = 4000 }, "invalid params"},
	})
}

// TestBuildRejectsCorruption covers fields no trained model can carry:
// header fields and the parts of the layout pack always writes one way.
func TestBuildRejectsCorruption(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		"zero features":        {func(m *Model) { m.flat.nFeature = 0 }, "0 features"},
		"leaf feature -2":      {func(m *Model) { m.flat.feature[1] = -2 }, "tree 0 node 1"},
		"leaf with a cut":      {func(m *Model) { m.flat.cut[2] = 1 }, "tree 0 node 2"},
		"split with a value":   {func(m *Model) { m.flat.leaf[0] = 0.5 }, "tree 0 node 0"},
		"split with -0 value":  {func(m *Model) { m.flat.leaf[0] = math.Copysign(0, -1) }, "tree 0 node 0"},
		"threshold not cut at": {func(m *Model) { m.flat.edges[0] = []float64{0.5, 0.75} }, "no split"},
		"thresholds descend": {func(m *Model) {
			m.flat.edges[0], m.flat.cut[0] = []float64{0.75, 0.5}, 1
		}, "feature 0 threshold 1"},
		"NaN threshold": {func(m *Model) { m.flat.edges[0][0] = math.NaN() }, "feature 0 threshold 0"},
		"deeper than max": {func(m *Model) {
			m.params.MaxDepth = 1
			m.flat.right[0], m.flat.feature[1], m.flat.left[1], m.flat.right[1], m.flat.leaf[1] = 1, 0, 2, 2, 0
		}, "2 deep"},
	})
}

// TestBuildValidatesTreeStructure covers child links, split features, cuts
// and tree counts that point outside the model.
func TestBuildValidatesTreeStructure(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		"out-of-range child": {func(m *Model) { m.flat.left[0] = 5 }, "tree 0 node 0"},
		"feature range":      {func(m *Model) { m.flat.feature[0] = 7 }, "feature 7 out of range"},
		"cut range":          {func(m *Model) { m.flat.cut[0] = 1 }, "cut 1 of feature 0's 1 thresholds"},
		"empty tree":         {func(m *Model) { m.flat.roots = []int32{0, 0} }, "tree 0 empty"},
		"no trees": {func(m *Model) {
			f := &m.flat
			f.roots, f.feature, f.leaf, f.left, f.right, f.cut, f.edges = nil, nil, nil, nil, nil, nil, make([][]float64, 2)
		}, "no trees"},
	})
}

package gbt

import (
	"math"
	"strings"
	"testing"
)

// buildEdit changes one part of a valid model before it reaches build.
type buildEdit func(h *binHeader, gain *[]float64, trees []tree)

// validBuildInput is a one-split model that build accepts.
func validBuildInput() (binHeader, []float64, []tree) {
	h := binHeader{Version: serializationVersion, NFeature: 2, Params: Params{NumTrees: 1, MaxDepth: 2, LearningRate: 0.1,
		Subsample: 1, ColSample: 1, MinChildWeight: 1, Lambda: 1, NumBins: 64, Seed: 1}}
	split := []node{{feature: 0, threshold: 0.5, left: 1, right: 2}, {feature: -1, value: 1}, {feature: -1, value: 2}}
	return h, []float64{0, 0}, []tree{{nodes: split}}
}

// checkBuildRejects applies each edit to a fresh valid model and requires
// build to refuse it with an error naming the wanted text.
func checkBuildRejects(t *testing.T, cases map[string]struct {
	edit buildEdit
	want string
}) {
	t.Helper()
	if _, err := build(validBuildInput()); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	for name, c := range cases {
		h, gain, trees := validBuildInput()
		c.edit(&h, &gain, trees)
		if m, err := build(h, gain, trees); err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.want)
		}
	}
}

// TestBuildRejectsHostileModels covers the malformed-but-well-typed models an
// untrusted model directory could hold, at build, where every decoded model
// ends: cyclic trees that would hang Predict, misaligned gain vectors and
// out-of-range hyperparameters. A structural error says where it is.
func TestBuildRejectsHostileModels(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		// A self-loop or backward child link would make tree.predict spin
		// forever; build requires strictly forward links.
		"self-loop child": {func(_ *binHeader, _ *[]float64, tr []tree) { tr[0].nodes[0].left = 0 }, "tree 0 node 0"},
		"backward child": {func(_ *binHeader, _ *[]float64, tr []tree) {
			tr[0].nodes[0], tr[0].nodes[1] = tr[0].nodes[1], node{feature: 0, threshold: 0.5, left: 0, right: 2}
		}, "tree 0 node 1"},
		"gain length":        {func(_ *binHeader, g *[]float64, _ []tree) { *g = []float64{0, 0, 0} }, "gain has 3 entries"},
		"negative gain":      {func(_ *binHeader, g *[]float64, _ []tree) { (*g)[0] = -1 }, "invalid gain"},
		"infinite value":     {func(_ *binHeader, _ *[]float64, tr []tree) { tr[0].nodes[2].value = math.Inf(1) }, "tree 0 node 2"},
		"zero learning rate": {func(h *binHeader, _ *[]float64, _ []tree) { h.Params.LearningRate = 0 }, "invalid params"},
		"hostile depth":      {func(h *binHeader, _ *[]float64, _ []tree) { h.Params.MaxDepth = 4000 }, "invalid params"},
		"NaN bias":           {func(h *binHeader, _ *[]float64, _ []tree) { h.Bias = math.NaN() }, "bias"},
	})
}

// TestBuildRejectsCorruption covers header fields no trained model can carry.
func TestBuildRejectsCorruption(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		"future version": {func(h *binHeader, _ *[]float64, _ []tree) { h.Version = 2 }, "version"},
		"zero features":  {func(h *binHeader, _ *[]float64, _ []tree) { h.NFeature = 0 }, "0 features"},
	})
}

// TestBuildValidatesTreeStructure covers child links, split features and
// tree counts that point outside the model.
func TestBuildValidatesTreeStructure(t *testing.T) {
	checkBuildRejects(t, map[string]struct {
		edit buildEdit
		want string
	}{
		"out-of-range child": {func(_ *binHeader, _ *[]float64, tr []tree) { tr[0].nodes[0].left = 5 }, "tree 0 node 0"},
		"feature range":      {func(_ *binHeader, _ *[]float64, tr []tree) { tr[0].nodes[0].feature = 7 }, "feature 7 out of range"},
		"empty tree":         {func(_ *binHeader, _ *[]float64, tr []tree) { tr[0].nodes = nil }, "tree 0 empty"},
	})
	h, gain, _ := validBuildInput()
	if _, err := build(h, gain, nil); err == nil || !strings.Contains(err.Error(), "no trees") {
		t.Errorf("no trees: %v", err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/exp/spec"
)

var testGraphs = []mixGraph{{vertices: 6480, maxIn: 9}, {vertices: 4800, maxIn: 7}, {vertices: 6272, maxIn: 3}, {vertices: 5120, maxIn: 2}}

func TestStreamDeterministic(t *testing.T) {
	a := genStream(7, 3000, testGraphs)
	b := genStream(7, 3000, testGraphs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op streams")
	}
	c := genStream(8, 3000, testGraphs)
	if reflect.DeepEqual(a.ops, c.ops) || reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("seeds 7 and 8 drew the same op stream")
	}
}

func TestStreamMix(t *testing.T) {
	st := genStream(1, 20000, testGraphs)
	if len(st.ops) != 20000 {
		t.Fatalf("%d ops, want 20000", len(st.ops))
	}
	uploads, repeats := 0, 0
	seen := map[int]bool{}
	for _, op := range st.ops {
		if op.req < 0 {
			uploads++
			continue
		}
		if seen[op.req] {
			repeats++
		}
		seen[op.req] = true
	}
	engineOps := len(st.ops) - uploads
	if share := float64(uploads) / float64(len(st.ops)); share < 0.08 || share > 0.12 {
		t.Errorf("upload share %.3f, want about 0.10", share)
	}
	if share := float64(repeats) / float64(engineOps); share < 0.4 || share > 0.6 {
		t.Errorf("repeat share of engine ops %.3f, want about half", share)
	}
	bodies := map[string]bool{}
	for _, u := range st.uploads {
		if bodies[string(u)] {
			t.Fatal("two uploads of one stream are identical")
		}
		bodies[string(u)] = true
	}
}

// Every drawn body must be a request a correct daemon accepts: vertices in
// range, capacities above the largest in-degree.
func TestStreamBodiesInRange(t *testing.T) {
	st := genStream(3, 5000, testGraphs)
	for _, q := range st.reqs {
		g := testGraphs[q.graph]
		var req map[string]any
		if err := json.Unmarshal(q.body, &req); err != nil {
			t.Fatalf("%s body %s: %v", q.engine, q.body, err)
		}
		for _, k := range []string{"s", "s1", "fast_words"} {
			if v, ok := req[k].(float64); ok && int(v) <= g.maxIn {
				t.Errorf("%s body %s: %s = %v does not exceed in-degree %d", q.engine, q.body, k, v, g.maxIn)
			}
		}
		if v, ok := req["vertex"].(float64); ok && (v < 0 || int(v) >= g.vertices) {
			t.Errorf("%s body %s: vertex out of range", q.engine, q.body)
		}
	}
}

func TestUploadBodyIsAValidGraph(t *testing.T) {
	st := genStream(5, 400, testGraphs)
	for i, u := range st.uploads[:5] {
		var req struct {
			Graph json.RawMessage `json:"graph"`
		}
		if err := json.Unmarshal(u, &req); err != nil {
			t.Fatal(err)
		}
		g, err := cdag.ReadJSONLimits(bytes.NewReader(req.Graph), cdag.JSONLimits{MaxVertices: 1 << 20})
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if n := g.NumVertices(); n < 1000 || n >= 2000 {
			t.Errorf("upload %d has %d vertices, want 1000–1999", i, n)
		}
		if err := g.Validate(cdag.ValidateRBW); err != nil {
			t.Errorf("upload %d: %v", i, err)
		}
	}
}

// Fresh bodies name the engines in proportion to engineWeights, and none
// repeats an earlier body except wmax's, which has one body a graph.
func TestStreamEngineShares(t *testing.T) {
	st := genStream(11, 20000, testGraphs)
	count := map[string]int{}
	for _, q := range st.reqs {
		count[q.engine]++
	}
	total, weights := 0, 0
	for _, w := range engineWeights {
		if w.engine != "wmax" {
			total += count[w.engine]
			weights += w.weight
		}
	}
	for _, w := range engineWeights {
		if w.engine == "wmax" {
			if count["wmax"] != len(testGraphs) {
				t.Errorf("%d distinct wmax bodies, want one a graph", count["wmax"])
			}
			continue
		}
		got, want := float64(count[w.engine])/float64(total), float64(w.weight)/float64(weights)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s: %.3f of distinct bodies, want %.3f", w.engine, got, want)
		}
	}
}

// The first four engine weights are the engine cells of specs/paper.yaml,
// the requests cdagx -remote sends for it.
func TestEngineWeightsFollowPaperSpec(t *testing.T) {
	s, err := spec.Load("../" + paperSpec)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := spec.Compile(s, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for _, c := range ir.Cells {
		if c.Engine != "" {
			cells[c.Engine]++
		}
	}
	weights := map[string]int{}
	for _, w := range engineWeights {
		weights[w.engine] = w.weight
	}
	least := math.MaxInt
	for e, n := range cells {
		least = min(least, n)
		if weights[e] != n {
			t.Errorf("%s: weight %d, the paper spec has %d engine cells", e, weights[e], n)
		}
	}
	for e, w := range weights {
		if cells[e] == 0 && w != least {
			t.Errorf("%s: weight %d, want the least spec weight %d", e, w, least)
		}
	}
}

package graphalg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdagio/internal/cdag"
)

// TestMaxFlowMatchesReference requires maxFlowBounded, with and without a
// limit, to push the same augmenting paths in the same order as the full-BFS reference solves of
// maxflow_reference_test.go.  Two solvers build the same network; one solves
// it with the production core, the other with the reference, and the test
// compares the (value, aborted) results and the residual capacity arrays.
// Bound, witness and canonical cut are shared by every maximum flow, so the
// other tests cannot see a changed path order.
//
// It covers the strip network of every vertex of every generator graph and of
// 60 random DAGs under need ∈ {0, 1, w−1, w, w+1, w+3}
// for the vertex's true wavefront w; and random flow networks with finite and
// infinite capacities under every limit up to the maximum flow, where unlike
// in the vertex-split networks any level cut may bind.
func TestMaxFlowMatchesReference(t *testing.T) {
	type namedGraph struct {
		name string
		g    *cdag.Graph
	}
	var graphs []namedGraph
	for name, g := range generatorGraphs(t) {
		graphs = append(graphs, namedGraph{name, g})
	}
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].name < graphs[j].name })
	rng := rand.New(rand.NewSource(1515))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(60)
		graphs = append(graphs, namedGraph{fmt.Sprintf("random%d", trial), randomDAG(rng, n, 2*n)})
	}
	var st solveStats
	for _, ng := range graphs {
		stripFlowsMatch(t, ng.name, ng.g, &st)
	}
	for trial := 0; trial < 300; trial++ {
		randomFlowsMatch(t, trial, rng, &st)
	}
	// The comparison is only as strong as the solves it saw: require aborted
	// bounded solves and bounded solves run to completion.
	if st.aborted == 0 || st.completed == 0 {
		t.Fatalf("weak coverage: %d aborted and %d completed bounded solves", st.aborted, st.completed)
	}
}

// solveStats counts the kinds of solves the comparisons exercised.
type solveStats struct{ aborted, completed int }

// stripFlowsMatch compares the production and reference solves on the strip
// network of every vertex of g (every fourth under -short).
func stripFlowsMatch(t *testing.T, name string, g *cdag.Graph, st *solveStats) {
	t.Helper()
	truth, a, b := NewCutSolver(), NewCutSolver(), NewCutSolver()
	truth.ensureGraph(g)
	a.ensureGraph(g)
	b.ensureGraph(g)
	step := 1
	if testing.Short() {
		step = 4 // every fourth vertex: the race job runs -short
	}
	vs := g.Vertices()
	for vi := 0; vi < len(vs); vi += step {
		x := vs[vi]
		truth.explore(x)
		w := truth.minWavefront(x)
		for _, need := range []int{0, 1, w - 1, w, w + 1, w + 3} {
			if need < 0 {
				continue
			}
			a.explore(x)
			b.explore(x)
			if len(a.desc) == 0 {
				continue // the bound is 1 without a network
			}
			a.buildStrip(x, sourceSpans{})
			b.buildStrip(x, sourceSpans{})
			got, gotAb := a.strip.maxFlowBounded(0, 1, int64(need))
			var want int64
			var wantAb bool
			if need > 0 {
				want, wantAb = b.strip.maxFlowBoundedReference(0, 1, int64(need))
				if wantAb {
					st.aborted++
				} else {
					st.completed++
				}
			} else {
				want = b.strip.maxFlowReference(0, 1)
			}
			if got != want || gotAb != wantAb {
				t.Fatalf("%s vertex %d (need=%d): (flow, aborted) = (%d, %v), reference (%d, %v)",
					name, x, need, got, gotAb, want, wantAb)
			}
			if !slices.Equal(a.strip.cap, b.strip.cap) {
				t.Fatalf("%s vertex %d (need=%d): residual capacities differ from the reference", name, x, need)
			}
		}
	}
}

// randomFlowsMatch compares the production and reference solves on one random
// network: 4–40 nodes, source 0, sink 1, arcs of capacity 1–3 or flowInf
// (parallel and antiparallel arcs included), solved by maxFlowBounded with
// no limit and under every limit from 0 to the maximum flow + 1 (at most 65:
// an all-infinite path makes the maximum flowInf).
func randomFlowsMatch(t *testing.T, trial int, rng *rand.Rand, st *solveStats) {
	t.Helper()
	n := 4 + rng.Intn(37)
	var a, b flowCSR
	arcs := n + rng.Intn(4*n)
	for i := 0; i < arcs; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || u == 1 || v == 0 {
			continue
		}
		c := int64(1 + rng.Intn(3))
		if rng.Intn(4) == 0 {
			c = flowInf
		}
		a.stageEdge(u, v, c)
		b.stageEdge(u, v, c)
	}
	a.buildFresh(n)
	b.buildFresh(n)
	cap0 := slices.Clone(a.cap)
	maxf, _ := a.maxFlowBounded(0, 1, 0)
	if want := b.maxFlowReference(0, 1); maxf != want || !slices.Equal(a.cap, b.cap) {
		t.Fatalf("random network %d: max flow %d, reference %d, residuals equal: %v",
			trial, maxf, want, slices.Equal(a.cap, b.cap))
	}
	for lim := int64(0); lim <= min(maxf, 64)+1; lim++ {
		copy(a.cap, cap0)
		copy(b.cap, cap0)
		got, gotAb := a.maxFlowBounded(0, 1, lim)
		want, wantAb := b.maxFlowBoundedReference(0, 1, lim)
		if got != want || gotAb != wantAb || !slices.Equal(a.cap, b.cap) {
			t.Fatalf("random network %d (lim=%d): (flow, aborted) = (%d, %v), reference (%d, %v), residuals equal: %v",
				trial, lim, got, gotAb, want, wantAb, slices.Equal(a.cap, b.cap))
		}
		if wantAb {
			st.aborted++
		} else {
			st.completed++
		}
	}
}

// TestBuildFreshSizesEachArcSlice builds a network into a flowCSR whose arc
// arrays have different capacities — to holds room for every arc, cap and
// adjArc for none — and requires the network a zero flowCSR builds from the
// same staged edges.  Each arc array must be sized from its own capacity.
func TestBuildFreshSizesEachArcSlice(t *testing.T) {
	var a, b flowCSR
	a.to = make([]int32, 0, 64)
	for _, f := range []*flowCSR{&a, &b} {
		for v := int32(2); v < 10; v++ {
			f.stageEdge(0, v, 1)
			f.stageEdge(v, 1, flowInf)
		}
		f.buildFresh(10)
	}
	if !slices.Equal(a.to, b.to) || !slices.Equal(a.cap, b.cap) || !slices.Equal(a.adjArc, b.adjArc) {
		t.Fatalf("networks differ: to %v/%v, cap %v/%v, adjArc %v/%v", a.to, b.to, a.cap, b.cap, a.adjArc, b.adjArc)
	}
	fa, _ := a.maxFlowBounded(0, 1, 0)
	fb, _ := b.maxFlowBounded(0, 1, 0)
	if fa != 8 || fb != 8 {
		t.Fatalf("max flow %d and %d, want 8", fa, fb)
	}
}

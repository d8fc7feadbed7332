package graphalg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdagio/internal/cdag"
)

// TestMaxFlowMatchesReference requires maxFlow and maxFlowBounded to push the
// same augmenting paths in the same order as the full-BFS reference solves of
// maxflow_reference_test.go.  Two solvers build the same network; one solves
// it with the production core, the other with the reference, and the test
// compares the (value, aborted) results and the residual capacity arrays.
// Bound, witness and canonical cut are shared by every maximum flow, so the
// other tests cannot see a changed path order; the warm starts (which re-seed
// harvested paths, aborted solves included) and the dirty-arc restore of the
// cached static network depend on it.
//
// It covers the strip network of every vertex of every generator graph and of
// 60 random DAGs, cold and warm-seeded, under need ∈ {0, 1, w−1, w, w+1, w+3}
// for the vertex's true wavefront w; MinVertexCut on the cached static network
// with random and wavefront-shaped source and target sets; and random flow
// networks with finite and infinite capacities under every limit up to the
// maximum flow, where unlike in the vertex-split networks any level cut may
// bind.
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
		vertexCutsMatch(t, ng.name, ng.g, rng)
	}
	for trial := 0; trial < 300; trial++ {
		randomFlowsMatch(t, trial, rng, &st)
	}
	// The comparison is only as strong as the solves it saw: require aborted
	// bounded solves, bounded solves run to completion, and warm solves that
	// started from seeded flow.
	if st.aborted == 0 || st.completed == 0 || st.seeded == 0 {
		t.Fatalf("weak coverage: %d aborted and %d completed bounded solves, %d seeded warm solves",
			st.aborted, st.completed, st.seeded)
	}
}

// solveStats counts the kinds of solves the comparisons exercised.
type solveStats struct{ aborted, completed, seeded int }

// stripFlowsMatch compares the production and reference solves on the strip
// network of every vertex of g (every fourth under -short), for cold solvers
// and for warm solvers kept in lockstep: their harvested paths must agree
// after every solve, since the next candidate's network is seeded from them.
func stripFlowsMatch(t *testing.T, name string, g *cdag.Graph, st *solveStats) {
	t.Helper()
	truth := NewCutSolver()
	truth.ensureGraph(g)
	step := 1
	if testing.Short() {
		step = 4 // every fourth vertex: the race job runs -short
	}
	vs := g.Vertices()
	for _, warm := range []bool{false, true} {
		a, b := NewCutSolver(), NewCutSolver()
		a.ensureGraph(g)
		b.ensureGraph(g)
		for vi := 0; vi < len(vs); vi += step {
			x := vs[vi]
			truth.explore(x)
			w, _ := truth.minWavefrontRun(x, 0, false)
			for _, need := range []int{0, 1, w - 1, w, w + 1, w + 3} {
				if need < 0 {
					continue
				}
				a.explore(x)
				b.explore(x)
				if len(a.desc) == 0 {
					continue // the bound is 1 without a network
				}
				seeded := a.buildStrip(x, warm)
				if sb := b.buildStrip(x, warm); sb != seeded {
					t.Fatalf("%s vertex %d (warm=%v need=%d): seeded %d and %d units", name, x, warm, need, seeded, sb)
				}
				if seeded > 0 {
					st.seeded++
				}
				var got, want int64
				var gotAb, wantAb bool
				if lim := int64(need) - seeded; need > 0 && lim > 0 {
					got, gotAb = a.strip.maxFlowBounded(0, 1, lim)
					want, wantAb = b.strip.maxFlowBoundedReference(0, 1, lim)
					if wantAb {
						st.aborted++
					} else {
						st.completed++
					}
				} else {
					got = a.strip.maxFlow(0, 1)
					want = b.strip.maxFlowReference(0, 1)
				}
				if got != want || gotAb != wantAb {
					t.Fatalf("%s vertex %d (warm=%v need=%d): (flow, aborted) = (%d, %v), reference (%d, %v)",
						name, x, warm, need, got, gotAb, want, wantAb)
				}
				if !slices.Equal(a.strip.cap, b.strip.cap) {
					t.Fatalf("%s vertex %d (warm=%v need=%d): residual capacities differ from the reference", name, x, warm, need)
				}
				if warm {
					a.harvestPaths()
					b.harvestPaths()
					if !slices.Equal(a.warmBuf, b.warmBuf) || !slices.Equal(a.warmOff, b.warmOff) {
						t.Fatalf("%s vertex %d (need=%d): harvested paths %v/%v, reference %v/%v",
							name, x, need, a.warmBuf, a.warmOff, b.warmBuf, b.warmOff)
					}
				}
			}
		}
	}
}

// vertexCutsMatch compares the production and reference solves of
// MinVertexCut queries on the cached static network of g: random source and
// target sets (overlaps and random uncuttable vertices included), and the
// wavefront queries of the reference MinWavefrontLowerBound.  Both solvers
// serve every query in turn, so the dirty-arc restore between queries runs on
// the flows under test.
func vertexCutsMatch(t *testing.T, name string, g *cdag.Graph, rng *rand.Rand) {
	t.Helper()
	n := g.NumVertices()
	a, b := NewCutSolver(), NewCutSolver()
	subset := func(k int) []cdag.VertexID {
		var vs []cdag.VertexID
		for _, v := range rng.Perm(n)[:min(k, n)] {
			vs = append(vs, cdag.VertexID(v))
		}
		return vs
	}
	for q := 0; q < 8; q++ {
		var sources, targets []cdag.VertexID
		var opts CutOptions
		if q%2 == 0 {
			sources = subset(1 + rng.Intn(3))
			targets = subset(1 + rng.Intn(4))
			opts.UncuttableSet = cdag.NewVertexSetOf(n, subset(rng.Intn(3))...)
		} else {
			x := cdag.VertexID(rng.Intn(n))
			desc := Descendants(g, x)
			if desc.Len() == 0 {
				continue
			}
			anc := Ancestors(g, x)
			anc.Add(x)
			sources, targets = anc.Elements(), desc.Elements()
			opts.UncuttableSet = desc
		}
		fa, ra := a.cutNetwork(g, sources, targets, opts)
		fb, rb := b.cutNetwork(g, sources, targets, opts)
		if (fa == nil) != (fb == nil) || ra != rb {
			t.Fatalf("%s query %d: degenerate verdicts differ", name, q)
		}
		if fa == nil {
			continue
		}
		s := int32(2 * n)
		got, want := fa.maxFlow(s, s+1), fb.maxFlowReference(s, s+1)
		if got != want {
			t.Fatalf("%s query %d: flow %d, reference %d", name, q, got, want)
		}
		if !slices.Equal(fa.cap, fb.cap) || !slices.Equal(fa.dirty, fb.dirty) {
			t.Fatalf("%s query %d: residual capacities or dirty arcs differ from the reference", name, q)
		}
		ka, cutA := a.splitCut(fa, got)
		kb, cutB := b.splitCut(fb, want)
		if ka != kb || !slices.Equal(cutA, cutB) {
			t.Fatalf("%s query %d: cut (%d, %v), reference (%d, %v)", name, q, ka, cutA, kb, cutB)
		}
	}
}

// randomFlowsMatch compares the production and reference solves on one random
// network: 4–40 nodes, source 0, sink 1, arcs of capacity 1–3 or flowInf
// (parallel and antiparallel arcs included), solved by maxFlow and by
// maxFlowBounded under every limit from 0 to the maximum flow + 1 (at most
// 65: an all-infinite path makes the maximum flowInf).
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
	maxf, want := a.maxFlow(0, 1), b.maxFlowReference(0, 1)
	if maxf != want || !slices.Equal(a.cap, b.cap) {
		t.Fatalf("random network %d: maxFlow %d, reference %d, residuals equal: %v",
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

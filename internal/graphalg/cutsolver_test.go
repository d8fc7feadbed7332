package graphalg

import (
	"math/rand"
	"reflect"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// randomDAG builds a seeded random DAG: n vertices, edges only from lower to
// higher IDs, so every instance is acyclic and the suite is reproducible.
func randomDAG(rng *rand.Rand, n, extraEdges int) *cdag.Graph {
	g := cdag.NewGraph("rand", n)
	g.AddVertices(n)
	// A sprinkling of chain edges keeps most vertices connected so the cones
	// are non-trivial.
	for v := 1; v < n; v++ {
		if rng.Intn(3) > 0 {
			g.AddEdge(cdag.VertexID(rng.Intn(v)), cdag.VertexID(v))
		}
	}
	for i := 0; i < extraEdges; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(cdag.VertexID(u), cdag.VertexID(v))
	}
	return g
}

// TestStripEquivalenceRandomDAGs pins the strip-local engine against the
// full-network reference on randomized DAGs: per-vertex bound values
// (CutSolver.MinWavefrontAt vs minWavefrontLowerBound) and the complete
// search result — bound AND witness — against the serial all-candidates scan,
// across worker counts.
func TestStripEquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cs := NewCutSolver()
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		g := randomDAG(rng, n, 2*n)
		for _, x := range g.Vertices() {
			want := minWavefrontLowerBound(g, x)
			got := cs.MinWavefrontAt(g, x)
			if got != want {
				t.Fatalf("trial %d vertex %d: strip bound %d, reference %d", trial, x, got, want)
			}
		}
		wantW, wantV := maxMinWavefrontLowerBoundSerial(g, nil)
		for _, conc := range []int{1, 3} {
			gotW, gotV := wmax(t, g, nil, WMaxOptions{Concurrency: conc})
			if gotW != wantW || gotV != wantV {
				t.Fatalf("trial %d (conc=%d): (bound, witness) = (%d, %d), serial (%d, %d)",
					trial, conc, gotW, gotV, wantW, wantV)
			}
		}
	}
}

// TestCutSolverReuseAcrossGraphs drives one solver across alternating graphs
// and query kinds, checking every answer against a fresh computation: the
// epoch-stamped scratch and the strip network must never leak state between
// graphs.
func TestCutSolverReuseAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*cdag.Graph{
		randomDAG(rng, 20, 40),
		randomDAG(rng, 35, 80),
		gen.Jacobi(1, 8, 3, gen.StencilStar).Graph,
	}
	for _, g := range graphs[:2] {
		for _, v := range g.Sources() {
			g.TagInput(v)
		}
	}
	cs := NewCutSolver()
	for round := 0; round < 3; round++ {
		for gi, g := range graphs {
			for _, x := range g.Vertices() {
				want := minWavefrontLowerBound(g, x)
				if got := cs.MinWavefrontAt(g, x); got != want {
					t.Fatalf("round %d graph %d vertex %d: %d, want %d", round, gi, x, got, want)
				}
			}
			sinks := cdag.NewVertexSetOf(g.NumVertices(), g.Sinks()...)
			wantK, wantDom := NewCutSolver().MinDominatorSize(g, sinks)
			gotK, gotDom := cs.MinDominatorSize(g, sinks)
			if gotK != wantK || !reflect.DeepEqual(gotDom, wantDom) {
				t.Fatalf("round %d graph %d: dominator (%d, %v), want (%d, %v)", round, gi, gotK, gotDom, wantK, wantDom)
			}
		}
	}
}

// TestMinVertexCutDuplicateEndpoints checks the reference cut on duplicate
// source and target entries: they stage the same arcs twice, which never
// changes the cut.
func TestMinVertexCutDuplicateEndpoints(t *testing.T) {
	g, v := diamond()
	k, cut := minVertexCut(g,
		[]cdag.VertexID{v[0], v[0], v[0]},
		[]cdag.VertexID{v[3], v[3]},
		nil)
	wantK, wantCut := minVertexCut(g, []cdag.VertexID{v[0]}, []cdag.VertexID{v[3]}, nil)
	if k != wantK || !reflect.DeepEqual(cut, wantCut) {
		t.Fatalf("duplicate endpoints: (%d, %v), want (%d, %v)", k, cut, wantK, wantCut)
	}
}

// butterflyStackGraph is the layered benchmark instance whose cut set the
// goldens below pin.
func butterflyStackGraph() *cdag.Graph {
	const width, depth = 32, 5
	g := cdag.NewGraph("bench", width*(depth+1))
	layer := make([][]cdag.VertexID, depth+1)
	for l := 0; l <= depth; l++ {
		layer[l] = make([]cdag.VertexID, width)
		for i := 0; i < width; i++ {
			if l == 0 {
				layer[l][i] = g.AddInput("in")
			} else {
				layer[l][i] = g.AddVertex("op")
				stride := 1 << ((l - 1) % 5)
				g.AddEdge(layer[l-1][i], layer[l][i])
				g.AddEdge(layer[l-1][(i+stride)%width], layer[l][i])
			}
		}
	}
	for _, v := range layer[depth] {
		g.TagOutput(v)
	}
	return g
}

// TestMinVertexCutGoldenSets pins the exact cut-set CONTENTS — not just the
// sizes — on four structurally different instances.  The expected sets were
// recorded from the historical slice-of-slices flow network; the reference
// cut, the dominator engine and the strip-local wavefront cut must reproduce
// them bit for bit, since downstream consumers report dominator sets and cut
// witnesses verbatim.
func TestMinVertexCutGoldenSets(t *testing.T) {
	ids := func(vs ...int32) []cdag.VertexID {
		out := make([]cdag.VertexID, len(vs))
		for i, v := range vs {
			out[i] = cdag.VertexID(v)
		}
		return out
	}

	t.Run("butterflyStack", func(t *testing.T) {
		g := butterflyStackGraph()
		k, cut := minVertexCut(g, g.Inputs(), g.Outputs(), nil)
		want := ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
			16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31)
		if k != 32 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (32, %v)", k, cut, want)
		}
	})

	t.Run("matmul4Dominator", func(t *testing.T) {
		g := gen.MatMul(4).Graph
		outs := cdag.NewVertexSet(g.NumVertices())
		outs.AddAll(g.Outputs())
		k, dom := NewCutSolver().MinDominatorSize(g, outs)
		want := ids(38, 45, 52, 59, 66, 73, 80, 87, 94, 101, 108, 115, 122, 129, 136, 143)
		if k != 16 || !reflect.DeepEqual(dom, want) {
			t.Fatalf("dominator = (%d, %v), want (16, %v)", k, dom, want)
		}
	})

	t.Run("jacobi2dUncuttable", func(t *testing.T) {
		g := gen.Jacobi(2, 6, 3, gen.StencilBox).Graph
		x := cdag.VertexID(g.NumVertices() / 2) // vertex 72
		desc := Descendants(g, x)
		anc := Ancestors(g, x)
		anc.Add(x)
		k, cut := minVertexCut(g, anc.Elements(), desc.Elements(), desc.Contains)
		want := ids(72, 73, 74, 78, 79, 80, 84, 85, 86)
		if k != 9 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (9, %v)", k, cut, want)
		}
	})

	t.Run("jacobi2dUncuttableSet", func(t *testing.T) {
		// The strip-local engine's canonical cut of the same wavefront
		// instance must reproduce the full-network golden above.
		g := gen.Jacobi(2, 6, 3, gen.StencilBox).Graph
		x := cdag.VertexID(g.NumVertices() / 2)
		cs := NewCutSolver()
		k := cs.MinWavefrontAt(g, x)
		cut := sortedCut(cs.lastStripCut(nil))
		want := ids(72, 73, 74, 78, 79, 80, 84, 85, 86)
		if k != 9 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (9, %v)", k, cut, want)
		}
	})

	t.Run("cgInputsToOutputs", func(t *testing.T) {
		g := gen.CG(2, 4, 2).Graph
		k, cut := minVertexCut(g, g.Inputs(), g.Outputs(), nil)
		want := ids(286, 288, 290, 292, 294, 296, 298, 300, 302, 304, 306, 308, 310, 312, 314, 316)
		if k != 16 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (16, %v)", k, cut, want)
		}
	})
}

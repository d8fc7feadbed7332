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
// (MinWavefrontLowerBoundStrip vs MinWavefrontLowerBound) and the complete
// search result — bound AND witness — against the serial all-candidates scan,
// across worker counts.
func TestStripEquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		g := randomDAG(rng, n, 2*n)
		for _, x := range g.Vertices() {
			want := MinWavefrontLowerBound(g, x)
			got := MinWavefrontLowerBoundStrip(g, x)
			if got != want {
				t.Fatalf("trial %d vertex %d: strip bound %d, reference %d", trial, x, got, want)
			}
		}
		wantW, wantV := MaxMinWavefrontLowerBoundSerial(g, nil)
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
// epoch-stamped scratch and the cached static network must never leak state
// between graphs.
func TestCutSolverReuseAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*cdag.Graph{
		randomDAG(rng, 20, 40),
		randomDAG(rng, 35, 80),
		gen.Jacobi(1, 8, 3, gen.StencilStar).Graph,
	}
	cs := NewCutSolver()
	for round := 0; round < 3; round++ {
		for gi, g := range graphs {
			for _, x := range g.Vertices() {
				want := MinWavefrontLowerBound(g, x)
				if got := cs.MinWavefrontAt(g, x); got != want {
					t.Fatalf("round %d graph %d vertex %d: %d, want %d", round, gi, x, got, want)
				}
			}
			sources, sinks := g.Sources(), g.Sinks()
			if len(sources) == 0 || len(sinks) == 0 {
				continue
			}
			wantK, wantCut := func() (int, []cdag.VertexID) {
				fresh := NewCutSolver()
				return fresh.MinVertexCut(g, sources, sinks, CutOptions{})
			}()
			gotK, gotCut := cs.MinVertexCut(g, sources, sinks, CutOptions{})
			if gotK != wantK || !reflect.DeepEqual(gotCut, wantCut) {
				t.Fatalf("round %d graph %d: cut (%d, %v), want (%d, %v)", round, gi, gotK, gotCut, wantK, wantCut)
			}
		}
	}
}

// TestMinVertexCutAfterArcArenaGrowth rebinds one solver's cached static
// network from a graph whose per-call extension arcs grew the arc arena to a
// graph whose static arcs fit the grown to array but not the grown cap array:
// append rounds int32 and int64 slices to different capacities.
func TestMinVertexCutAfterArcArenaGrowth(t *testing.T) {
	hit := 0
	for k := 2; k < 400; k++ {
		cs := NewCutSolver()
		a := chain(k)
		cs.MinVertexCut(a, []cdag.VertexID{0}, []cdag.VertexID{cdag.VertexID(k - 1)}, CutOptions{})
		lo, hi := cap(cs.full.cap), cap(cs.full.to)
		// A chain of m vertices has 2(m + m-1) = 4m-2 static arcs.
		for m := 2; 4*m-2 <= hi; m++ {
			if 4*m-2 <= lo {
				continue
			}
			hit++
			b := chain(m)
			src, dst := []cdag.VertexID{0}, []cdag.VertexID{cdag.VertexID(m - 1)}
			got, _ := cs.MinVertexCut(b, src, dst, CutOptions{})
			want, _ := NewCutSolver().MinVertexCut(b, src, dst, CutOptions{})
			if got != want {
				t.Fatalf("chain(%d) after chain(%d): cut %d, fresh solver %d", m, k, got, want)
			}
			break
		}
	}
	if hit == 0 {
		t.Fatal("no graph pair grew the arc arrays to different capacities")
	}
}

// TestMinVertexCutDuplicateEndpoints exercises the fresh-build fallback: with
// duplicate source/target entries the cached slack slots cannot host the
// extension arcs, and the solver must fall back to a one-off network with the
// historical arc order — duplicates added the same arcs twice in the old
// engine, which never changed the cut.
func TestMinVertexCutDuplicateEndpoints(t *testing.T) {
	g, v := diamond()
	k, cut := MinVertexCut(g,
		[]cdag.VertexID{v[0], v[0], v[0]},
		[]cdag.VertexID{v[3], v[3]},
		CutOptions{})
	wantK, wantCut := MinVertexCut(g, []cdag.VertexID{v[0]}, []cdag.VertexID{v[3]}, CutOptions{})
	if k != wantK || !reflect.DeepEqual(cut, wantCut) {
		t.Fatalf("duplicate endpoints: (%d, %v), want (%d, %v)", k, cut, wantK, wantCut)
	}
}

// TestUncuttableSetMatchesPredicate drives the cached-static path with the
// predicate form, the precomputed-set form and the union of both on
// randomized DAGs, asserting identical cut values and cut sets.  The set form
// is what the wavefront instances use (ROADMAP item d); it must be a pure
// performance change.
func TestUncuttableSetMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(30)
		g := randomDAG(rng, n, 2*n)
		sources, sinks := g.Sources(), g.Sinks()
		if len(sources) == 0 || len(sinks) == 0 {
			continue
		}
		uncut := cdag.NewVertexSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				uncut.Add(cdag.VertexID(v))
			}
		}
		wantK, wantCut := MinVertexCut(g, sources, sinks, CutOptions{Uncuttable: uncut.Contains})
		gotK, gotCut := MinVertexCut(g, sources, sinks, CutOptions{UncuttableSet: uncut})
		if gotK != wantK || !reflect.DeepEqual(gotCut, wantCut) {
			t.Fatalf("trial %d: set form (%d, %v), predicate form (%d, %v)",
				trial, gotK, gotCut, wantK, wantCut)
		}
		// Union semantics: splitting the same restriction across both fields
		// must change nothing.
		half := cdag.NewVertexSet(n)
		for _, v := range uncut.Elements() {
			if rng.Intn(2) == 0 {
				half.Add(v)
			}
		}
		bothK, bothCut := MinVertexCut(g, sources, sinks, CutOptions{
			UncuttableSet: half,
			Uncuttable:    uncut.Contains,
		})
		if bothK != wantK || !reflect.DeepEqual(bothCut, wantCut) {
			t.Fatalf("trial %d: union form (%d, %v), want (%d, %v)", trial, bothK, bothCut, wantK, wantCut)
		}
		// Duplicate endpoints route through the fresh-build fallback, which
		// must honor the set form too.
		dupSources := append([]cdag.VertexID{sources[0]}, sources...)
		wantK2, wantCut2 := MinVertexCut(g, dupSources, sinks, CutOptions{Uncuttable: uncut.Contains})
		gotK2, gotCut2 := MinVertexCut(g, dupSources, sinks, CutOptions{UncuttableSet: uncut})
		if gotK2 != wantK2 || !reflect.DeepEqual(gotCut2, wantCut2) {
			t.Fatalf("trial %d: fresh-build set form (%d, %v), predicate form (%d, %v)",
				trial, gotK2, gotCut2, wantK2, wantCut2)
		}
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
// sizes — returned by the engine on four structurally different instances.
// The expected sets were recorded from the historical slice-of-slices flow
// network; the CSR engine (cached-static path included) must reproduce them
// bit for bit, since downstream consumers report dominator sets and cut
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
		k, cut := MinVertexCut(g, g.Inputs(), g.Outputs(), CutOptions{})
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
		k, dom := MinDominatorSize(g, outs)
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
		k, cut := MinVertexCut(g, anc.Elements(), desc.Elements(), CutOptions{Uncuttable: desc.Contains})
		want := ids(72, 73, 74, 78, 79, 80, 84, 85, 86)
		if k != 9 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (9, %v)", k, cut, want)
		}
	})

	t.Run("jacobi2dUncuttableSet", func(t *testing.T) {
		// The precomputed-set form must reproduce the predicate golden above
		// bit for bit (same flip order, same cut set).
		g := gen.Jacobi(2, 6, 3, gen.StencilBox).Graph
		x := cdag.VertexID(g.NumVertices() / 2)
		desc := Descendants(g, x)
		anc := Ancestors(g, x)
		anc.Add(x)
		k, cut := MinVertexCut(g, anc.Elements(), desc.Elements(), CutOptions{UncuttableSet: desc})
		want := ids(72, 73, 74, 78, 79, 80, 84, 85, 86)
		if k != 9 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (9, %v)", k, cut, want)
		}
	})

	t.Run("cgInputsToOutputs", func(t *testing.T) {
		g := gen.CG(2, 4, 2).Graph
		k, cut := MinVertexCut(g, g.Inputs(), g.Outputs(), CutOptions{})
		want := ids(286, 288, 290, 292, 294, 296, 298, 300, 302, 304, 306, 308, 310, 312, 314, 316)
		if k != 16 || !reflect.DeepEqual(cut, want) {
			t.Fatalf("cut = (%d, %v), want (16, %v)", k, cut, want)
		}
	})
}

package graphalg

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// generatorGraphs builds one modest instance of every CDAG family in
// internal/gen, exercising the search engine across the full range of graph
// shapes (chains, trees, grids, butterflies, Krylov iterations).
func generatorGraphs(t testing.TB) map[string]*cdag.Graph {
	t.Helper()
	return map[string]*cdag.Graph{
		"chain":       gen.Chain(30),
		"indepChains": gen.IndependentChains(3, 8),
		"reduction":   gen.ReductionTree(32),
		"dot":         gen.DotProduct(24),
		"saxpy":       gen.Saxpy(20),
		"outer":       gen.OuterProduct(8),
		"matmul":      gen.MatMul(5).Graph,
		"composite":   gen.Composite(6).Graph,
		"fft":         gen.FFT(16),
		"binomial":    gen.BinomialTree(4),
		"pyramid":     gen.Pyramid(6),
		"jacobi1d":    gen.Jacobi(1, 12, 4, gen.StencilStar).Graph,
		"jacobi2d":    gen.Jacobi(2, 6, 3, gen.StencilBox).Graph,
		"heat1d":      gen.HeatEquation1D(12, 3).Graph,
		"cg":          gen.CG(2, 4, 2).Graph,
		"gmres":       gen.GMRES(2, 4, 2).Graph,
		"spmv": gen.SpMV(4, [][]int{
			{0, 1}, {1, 2, 3}, {0, 3}, {2},
		}).Graph,
	}
}

// wmax runs the w^max engine under a never-cancelled context.
func wmax(t testing.TB, g *cdag.Graph, candidates []cdag.VertexID, opts WMaxOptions) (int, cdag.VertexID) {
	t.Helper()
	w, at, err := MaxMinWavefrontLowerBoundCtx(context.Background(), g, candidates, opts)
	if err != nil {
		t.Fatalf("MaxMinWavefrontLowerBoundCtx: %v", err)
	}
	return w, at
}

// TestParallelWMaxMatchesSerial checks, for every generator family, that the
// parallel pruned engine returns exactly the serial all-candidates bound at
// every worker count, and that the reported witness vertex attains the bound.
func TestParallelWMaxMatchesSerial(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		wantW, wantV := MaxMinWavefrontLowerBoundSerial(g, nil)
		if wantV == cdag.InvalidVertex {
			t.Fatalf("%s: serial search found no witness", name)
		}
		for _, conc := range []int{1, 2, 4, 7} {
			gotW, gotV := wmax(t, g, nil, WMaxOptions{Concurrency: conc})
			if gotW != wantW {
				t.Errorf("%s (conc=%d): bound = %d, serial = %d", name, conc, gotW, wantW)
			}
			if gotV != wantV {
				// Strict pruning never skips a candidate that could tie the
				// maximum, so the witness (earliest maximizer in candidate
				// order) must match the serial scan exactly.
				t.Errorf("%s (conc=%d): witness = %d, serial = %d", name, conc, gotV, wantV)
			}
		}
	}
}

// TestParallelWMaxSubsetCandidates checks agreement on explicit candidate
// subsets, including single candidates, empty candidate lists, and lists
// longer than the two-phase seed sample whose candidate indices are not
// vertex IDs or repeat a vertex.
func TestParallelWMaxSubsetCandidates(t *testing.T) {
	g := gen.Jacobi(1, 10, 3, gen.StencilStar).Graph
	all := g.Vertices()
	subsets := [][]cdag.VertexID{
		{all[0]},
		{all[len(all)-1]},
		all[:5],
		all[len(all)/2:],
		{all[3], all[17], all[9]},
		all[2:],
		append(append([]cdag.VertexID{}, all[5:]...), all[5:20]...),
	}
	for i, cs := range subsets {
		wantW, wantV := MaxMinWavefrontLowerBoundSerial(g, cs)
		gotW, gotV := wmax(t, g, cs, WMaxOptions{Concurrency: 3})
		if gotW != wantW || gotV != wantV {
			t.Errorf("subset %d: (bound, witness) = (%d, %d), want (%d, %d)", i, gotW, gotV, wantW, wantV)
		}
	}
	if w, v := wmax(t, g, []cdag.VertexID{}, WMaxOptions{}); w != 0 || v != cdag.InvalidVertex {
		t.Errorf("empty candidates: got (%d, %d), want (0, invalid)", w, v)
	}
}

// TestTopByDegreeMatchesFullSort pins the seed ranking of the two-phase pass
// and the anchor against a full sort of the candidate indices by in+out
// degree (descending, ties by index), on candidate lists with repeats and for
// sample sizes below, at and above the list length.  On the full vertex list
// that is wavefront.TopCandidates' order.
func TestTopByDegreeMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.Jacobi(2, 6, 3, gen.StencilBox).Graph
	all := g.Vertices()
	lists := [][]cdag.VertexID{all, all[:20]}
	for trial := 0; trial < 5; trial++ {
		var cands []cdag.VertexID
		for i := 0; i < 60; i++ {
			cands = append(cands, all[rng.Intn(len(all))])
		}
		lists = append(lists, cands)
	}
	for li, cands := range lists {
		deg := func(i int) int { return g.InDegree(cands[i]) + g.OutDegree(cands[i]) }
		full := make([]int, len(cands))
		for i := range full {
			full[i] = i
		}
		sort.SliceStable(full, func(a, b int) bool { return deg(full[a]) > deg(full[b]) })
		for _, k := range []int{1, anchorCount, seedSample, len(cands), len(cands) + 5} {
			want := full[:min(k, len(full))]
			if got := topByDegree(g, cands, k); !slices.Equal(got, want) {
				t.Fatalf("list %d k=%d: topByDegree = %v, full sort %v", li, k, got, want)
			}
		}
	}
}

// TestScratchUpperBoundMatches checks the epoch-stamped scratch reimplementation
// of WavefrontUpperBound against the set-based original on every generator, on
// every vertex.  The prune pass is only exact if this upper bound is.
func TestScratchUpperBoundMatches(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		sc := NewCutSolver()
		sc.ensureGraph(g)
		for _, x := range g.Vertices() {
			sc.explore(x)
			got := sc.upperBound(x)
			want := WavefrontUpperBound(g, x)
			if got != want {
				t.Fatalf("%s vertex %d: scratch upper bound %d, reference %d", name, x, got, want)
			}
		}
	}
}

// TestScratchMinWavefrontMatches checks the strip-local flow path against the
// full-network reference MinWavefrontLowerBound vertex by vertex, including
// repeated reuse of the same solver across candidates (the reset path).
func TestScratchMinWavefrontMatches(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		sc := NewCutSolver()
		sc.ensureGraph(g)
		for _, x := range g.Vertices() {
			sc.explore(x)
			got := sc.minWavefront(x)
			want := MinWavefrontLowerBound(g, x)
			if got != want {
				t.Fatalf("%s vertex %d: scratch min wavefront %d, reference %d", name, x, got, want)
			}
		}
	}
}

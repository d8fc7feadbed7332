package graphalg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// TestStripSweepsAgree builds every candidate's strip network twice, once
// from the forward sweep and once from the backward sweep, and requires the
// same network arc for arc (to, cap and adjArc), the same strip vertices, the
// same solved value and the same canonical cut.  buildStrip picks one sweep
// per candidate by cost alone, so the two must be interchangeable wherever
// either can run.
//
// It covers every vertex (every fourth under -short) of the generator graphs,
// of 60 random DAGs and of FFT(256), BinomialTree(7), ReductionTree(256) and
// MatMul(6), where the forward sweep reaches wide free regions (the
// butterflies) or nothing at all (the trees).
func TestStripSweepsAgree(t *testing.T) {
	type namedGraph struct {
		name string
		g    *cdag.Graph
	}
	var graphs []namedGraph
	for name, g := range generatorGraphs(t) {
		graphs = append(graphs, namedGraph{name, g})
	}
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].name < graphs[j].name })
	graphs = append(graphs,
		namedGraph{"fft256", gen.FFT(256)},
		namedGraph{"binomial7", gen.BinomialTree(7)},
		namedGraph{"reduction256", gen.ReductionTree(256)},
		namedGraph{"matmul6", gen.MatMul(6).Graph},
	)
	rng := rand.New(rand.NewSource(1616))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(60)
		graphs = append(graphs, namedGraph{fmt.Sprintf("random%d", trial), randomDAG(rng, n, 2*n)})
	}
	stripped := 0 // networks holding a free strip vertex, not just A's boundary
	for _, ng := range graphs {
		stripped += stripSweepsAgree(t, ng.name, ng.g)
	}
	if stripped == 0 {
		t.Fatal("weak coverage: no network held a free strip vertex")
	}
}

// stripSweepsAgree runs the comparison on the vertices of g and returns how
// many of the networks held a free strip vertex.
func stripSweepsAgree(t *testing.T, name string, g *cdag.Graph) int {
	t.Helper()
	step := 1
	if testing.Short() {
		step = 4 // every fourth vertex: the race job runs -short
	}
	vs := g.Vertices()
	stripped := 0
	fw, bw := NewCutSolver(), NewCutSolver()
	fw.ensureGraph(g)
	bw.ensureGraph(g)
	var cutF, cutB []cdag.VertexID
	for vi := 0; vi < len(vs); vi += step {
		x := vs[vi]
		fw.explore(x)
		bw.explore(x)
		if len(fw.desc) == 0 {
			continue // the bound is 1 without a network
		}
		fw.sweepForward(x)
		fw.stripNetwork(x)
		bw.sweepBackward(x)
		bw.stripNetwork(x)
		where := fmt.Sprintf("%s vertex %d", name, x)
		f, b := &fw.strip, &bw.strip
		if f.n != b.n || !slices.Equal(f.to, b.to) || !slices.Equal(f.cap, b.cap) || !slices.Equal(f.adjArc, b.adjArc) {
			t.Fatalf("%s: networks differ: %d nodes and %d arcs forward, %d nodes and %d arcs backward",
				where, f.n, len(f.to), b.n, len(b.to))
		}
		if !slices.Equal(fw.stripVerts, bw.stripVerts) {
			t.Fatalf("%s: strip vertices %v forward, %v backward", where, fw.stripVerts, bw.stripVerts)
		}
		for _, v := range fw.stripVerts {
			if v != x && fw.ancMark[v] != fw.epoch {
				stripped++
				break
			}
		}
		flowF, flowB := f.maxFlow(0, 1), b.maxFlow(0, 1)
		if flowF != flowB {
			t.Fatalf("%s: flow %d forward, %d backward", where, flowF, flowB)
		}
		cutF, cutB = fw.lastStripCut(cutF), bw.lastStripCut(cutB)
		if !slices.Equal(cutF, cutB) {
			t.Fatalf("%s: cut %v forward, %v backward", where, cutF, cutB)
		}
	}
	return stripped
}

// TestMinWavefrontAtAllocatesNothing pins the per-candidate cost of a warmed
// solver at zero allocations: once its scratch has grown to the largest
// candidate of a graph, MinWavefrontAt on every vertex allocates nothing, on
// either sweep side.  The iolb-suite kernels at small sizes take mostly the
// backward sweep, the reduction tree only the forward one.
func TestMinWavefrontAtAllocatesNothing(t *testing.T) {
	graphs := []struct {
		name string
		g    *cdag.Graph
	}{
		{"jacobi", gen.Jacobi(2, 8, 2, gen.StencilBox).Graph},
		{"fft", gen.FFT(32)},
		{"composite", gen.Composite(4).Graph},
		{"cg", gen.CG(2, 4, 2).Graph},
		{"reduction", gen.ReductionTree(64)},
	}
	var forward, backward int
	for _, k := range graphs {
		cs := NewCutSolver()
		vs := k.g.Vertices()
		cs.ensureGraph(k.g)
		for _, x := range vs {
			cs.explore(x)
			if len(cs.desc) == 0 {
				continue
			}
			if cs.forwardCheaper(x) {
				forward++
			} else {
				backward++
			}
		}
		scan := func() {
			for _, x := range vs {
				cs.MinWavefrontAt(k.g, x)
			}
		}
		scan()
		if allocs := testing.AllocsPerRun(3, scan); allocs != 0 {
			t.Errorf("%s: a warmed MinWavefrontAt scan of all %d vertices allocates %v times", k.name, len(vs), allocs)
		}
	}
	if forward == 0 || backward == 0 {
		t.Fatalf("weak coverage: %d candidates sweep forward, %d backward", forward, backward)
	}
}

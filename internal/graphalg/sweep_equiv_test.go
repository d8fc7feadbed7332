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

// TestStripSweepsAgree builds every candidate's strip network three times,
// from the forward sweep, from the backward sweep, and from the backward
// sweep that skips what the demand-order source intervals prove unreachable
// from the ancestor cone, and requires the same network arc for arc (to, cap
// and adjArc), the same strip vertices, the same solved value and the same
// canonical cut.  buildStrip picks one sweep per candidate by cost alone, and
// the w^max scan hands it intervals where MinWavefrontAt does not, so all
// three must be interchangeable wherever they can run.
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
	var stripped, skipped int
	for _, ng := range graphs {
		st, sk := stripSweepsAgree(t, ng.name, ng.g)
		stripped += st
		skipped += sk
	}
	if stripped == 0 {
		t.Fatal("weak coverage: no network held a free strip vertex")
	}
	if skipped == 0 {
		t.Fatal("weak coverage: the intervals never kept the backward sweep from marking a vertex")
	}
}

// stripSweepsAgree runs the comparison on the vertices of g and returns how
// many of the networks held a free strip vertex, and for how many candidates
// the intervals kept the backward sweep from marking some vertex.
func stripSweepsAgree(t *testing.T, name string, g *cdag.Graph) (stripped, skipped int) {
	t.Helper()
	step := 1
	if testing.Short() {
		step = 4 // every fourth vertex: the race job runs -short
	}
	vs := g.Vertices()
	sources := demandSpans(g)
	fw, bw, sw := NewCutSolver(), NewCutSolver(), NewCutSolver()
	solvers := []struct {
		side string
		cs   *CutSolver
	}{{"forward", fw}, {"backward", bw}, {"backward with intervals", sw}}
	for _, s := range solvers {
		s.cs.ensureGraph(g)
	}
	cuts := make([][]cdag.VertexID, len(solvers))
	for vi := 0; vi < len(vs); vi += step {
		x := vs[vi]
		for _, s := range solvers {
			s.cs.explore(x)
		}
		if len(fw.desc) == 0 {
			continue // the bound is 1 without a network
		}
		fw.sweepForward(x)
		bw.sweepBackward(x, spans{})
		sw.sweepBackward(x, sources)
		for v := range bw.coMark {
			if bw.coMark[v] == bw.epoch && sw.coMark[v] != sw.epoch {
				skipped++
				break
			}
		}
		where := fmt.Sprintf("%s vertex %d", name, x)
		var flows []int64
		for i, s := range solvers {
			s.cs.stripNetwork(x)
			flow, _ := s.cs.strip.maxFlowBounded(0, 1, 0)
			flows = append(flows, flow)
			cuts[i] = s.cs.lastStripCut(cuts[i])
		}
		f := &fw.strip
		for i, s := range solvers[1:] {
			b := &s.cs.strip
			if f.n != b.n || !slices.Equal(f.to, b.to) || !slices.Equal(f.cap, b.cap) || !slices.Equal(f.adjArc, b.adjArc) {
				t.Fatalf("%s: networks differ: %d nodes and %d arcs forward, %d nodes and %d arcs %s",
					where, f.n, len(f.to), b.n, len(b.to), s.side)
			}
			if !slices.Equal(fw.stripVerts, s.cs.stripVerts) {
				t.Fatalf("%s: strip vertices %v forward, %v %s", where, fw.stripVerts, s.cs.stripVerts, s.side)
			}
			if flows[0] != flows[i+1] {
				t.Fatalf("%s: flow %d forward, %d %s", where, flows[0], flows[i+1], s.side)
			}
			if !slices.Equal(cuts[0], cuts[i+1]) {
				t.Fatalf("%s: cut %v forward, %v %s", where, cuts[0], cuts[i+1], s.side)
			}
		}
		for _, v := range fw.stripVerts {
			if v != x && fw.ancMark[v] != fw.epoch {
				stripped++
				break
			}
		}
	}
	return stripped, skipped
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

package graphalg

import (
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// benchGraph returns the large w^max benchmark instance: a 2-D Jacobi sweep
// with 6480 vertices and ~45k edges, comfortably above the 5000-vertex bar
// the acceptance criteria set for the parallel search.
func benchGraph() *cdag.Graph {
	return gen.Jacobi(2, 36, 4, gen.StencilBox).Graph
}

// BenchmarkWMaxSerialAllCandidates times the reference the engine is tested
// against: the all-candidates serial scan, one freshly built full
// vertex-split network and two fresh reachability traversals per candidate.
func BenchmarkWMaxSerialAllCandidates(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := maxMinWavefrontLowerBoundSerial(g, nil)
		if w < 1 {
			b.Fatal("bogus bound")
		}
	}
}

// BenchmarkWMaxEngine is the full new engine: worker pool, per-worker
// reusable scratch, and upper-bound pruning.
func BenchmarkWMaxEngine(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := wmax(b, g, nil, WMaxOptions{})
		if w < 1 {
			b.Fatal("bogus bound")
		}
	}
}

// BenchmarkWMaxEngineCG runs the engine on a Krylov-iteration CDAG, the
// second workload family Lemma 2 is applied to in the paper.
func BenchmarkWMaxEngineCG(b *testing.B) {
	g := gen.CG(2, 12, 3).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := wmax(b, g, nil, WMaxOptions{})
		if w < 1 {
			b.Fatal("bogus bound")
		}
	}
}

// BenchmarkWMaxScaleJacobi100k is the scale proof for the strip-local
// engine: the full all-candidates w^max search — every one of the 110,000
// vertices of a 100×100, T=10 Jacobi CDAG (888k edges) is a candidate.
// Infeasible before the strip-local rewrite (the full-network engine
// extrapolates to hours on this instance), it now completes in seconds on a
// single core and is part of the CI bench smoke.
func BenchmarkWMaxScaleJacobi100k(b *testing.B) {
	g := gen.Jacobi(2, 100, 10, gen.StencilBox).Graph
	g.Materialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := wmax(b, g, nil, WMaxOptions{})
		if w < 1 {
			b.Fatal("bogus bound")
		}
	}
}

// BenchmarkWMaxScaleJacobi1M is the million-vertex scale proof of the
// best-first scan: the exact all-candidates w^max scan over every vertex of
// a 512×512, T=3 Jacobi CDAG (1,048,576 vertices, 7.06M edges).  The seed
// pass, the keys of the bound pass, the best-first solve pass, the
// threshold-limited late bound and the abortable solves together bring the
// full scan to low single-digit seconds on one core — bound and witness
// still bit-identical to the serial reference.  Short mode
// (the CI bench smoke) trims to a 128×128 instance with the same shape so
// the whole pipeline is still exercised in well under a second.
func BenchmarkWMaxScaleJacobi1M(b *testing.B) {
	n := 512
	if testing.Short() {
		n = 128
	}
	g := gen.Jacobi(2, n, 3, gen.StencilBox).Graph
	g.Materialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := wmax(b, g, nil, WMaxOptions{})
		if w < 1 {
			b.Fatal("bogus bound")
		}
	}
}

// BenchmarkWMaxSuite times the all-candidates w^max scan of each iolb-suite
// kernel at the suite's size, so a change to the scan shows per kernel; of
// two trees, where a co-reachability sweep from the descendant side of every
// candidate made the scan quadratic, and which fall on either side of the
// sink-interval gate: the reduction tree's source intervals are exact, so its
// candidates are keyed from their smaller cone, and the binomial tree's are
// not, so its scan keys every candidate on its ancestor cone; and of a 1-D
// heat equation, whose thousands of candidates survive the early cut only to
// fall to the late one.
// Each iteration scans through a fresh SolverPool, as an iolb invocation does
// through its fresh Workspace.  Short mode shrinks every kernel.
//
// A kernel's time depends on the kernels run before it in the same process:
// behind a faster fft and binomial, composite, cg and reduction once read
// 14–22% slower although their scans walked the same cones, and −1%, +6% and
// +2% when each ran alone.  To compare one kernel across commits, run it in a
// process of its own:
//
//	go test -run '^$' -bench 'WMaxSuite/composite$' ./internal/graphalg
func BenchmarkWMaxSuite(b *testing.B) {
	for _, k := range []struct {
		name        string
		full, small func() *cdag.Graph
	}{
		{"jacobi",
			func() *cdag.Graph { return gen.Jacobi(2, 128, 3, gen.StencilBox).Graph },
			func() *cdag.Graph { return gen.Jacobi(2, 32, 3, gen.StencilBox).Graph }},
		{"fft",
			func() *cdag.Graph { return gen.FFT(1024) },
			func() *cdag.Graph { return gen.FFT(128) }},
		{"composite",
			func() *cdag.Graph { return gen.Composite(12).Graph },
			func() *cdag.Graph { return gen.Composite(6).Graph }},
		{"cg",
			func() *cdag.Graph { return gen.CG(3, 8, 2).Graph },
			func() *cdag.Graph { return gen.CG(2, 8, 2).Graph }},
		{"binomial",
			func() *cdag.Graph { return gen.BinomialTree(12) },
			func() *cdag.Graph { return gen.BinomialTree(8) }},
		{"reduction",
			func() *cdag.Graph { return gen.ReductionTree(8192) },
			func() *cdag.Graph { return gen.ReductionTree(512) }},
		{"heat1d",
			func() *cdag.Graph { return gen.HeatEquation1D(256, 32).Graph },
			func() *cdag.Graph { return gen.HeatEquation1D(64, 8).Graph }},
	} {
		b.Run(k.name, func(b *testing.B) {
			build := k.full
			if testing.Short() {
				build = k.small
			}
			g := build()
			g.Materialize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, _ := wmax(b, g, nil, WMaxOptions{Pool: NewSolverPool(g)})
				if w < 1 {
					b.Fatal("bogus bound")
				}
			}
		})
	}
}

// BenchmarkWMaxSample times the sampled w^max scan cdagd and cdagx run by
// default — the 32 candidates of largest degree, which the seed pass alone
// covers — on the four graphs the cdagd-mix benchmark workload queries.
func BenchmarkWMaxSample(b *testing.B) {
	for _, spec := range []gen.Spec{
		{Kind: "jacobi", Dim: 2, N: 36, Steps: 4, Stencil: "box"},
		{Kind: "cg", Dim: 2, N: 12, Iterations: 3},
		{Kind: "heat", N: 128, Steps: 16},
		{Kind: "fft", N: 512},
	} {
		b.Run(spec.Kind, func(b *testing.B) {
			built, err := gen.Build(&spec)
			if err != nil {
				b.Fatal(err)
			}
			g := built.Graph
			vs := g.Vertices()
			var cands []cdag.VertexID
			for _, i := range topByDegree(g, vs, seedSample) {
				cands = append(cands, vs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, _ := wmax(b, g, cands, WMaxOptions{Pool: NewSolverPool(g)})
				if w < 1 {
					b.Fatal("bogus bound")
				}
			}
		})
	}
}

// BenchmarkMinWavefrontScratch measures the per-candidate cost of the
// strip-local path alone (explore + strip build + Dinic) on the large
// instance.
func BenchmarkMinWavefrontScratch(b *testing.B) {
	g := benchGraph()
	sc := NewCutSolver()
	sc.ensureGraph(g)
	vs := g.Vertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := vs[i%len(vs)]
		sc.explore(x)
		if sc.minWavefront(x) < 1 {
			b.Fatal("bogus bound")
		}
	}
}

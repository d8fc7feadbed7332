package prbw

import (
	"context"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// benchScenario is an eviction-heavy P-RBW workload: a long 1-D Jacobi sweep
// over two nodes with small registers and caches, so the players spend their
// time in fetch/evict traffic rather than in computes.
func benchScenario() (*cdag.Graph, Topology, Assignment) {
	jr := gen.Jacobi(1, 96, 10, gen.StencilStar)
	owner := make([]int, jr.Graph.NumVertices())
	for v := range owner {
		owner[v] = v % 4
	}
	return jr.Graph, Distributed(2, 2, 8, 48, 1<<18), OwnerCompute(jr.Graph, owner)
}

// BenchmarkPlay measures the optimized player: dense recency heaps,
// epoch-stamped pins, no per-step allocations.
func BenchmarkPlay(b *testing.B) {
	g, topo, asg := benchScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlayCtx(context.Background(), g, topo, asg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayReference measures the map-based reference player the rewrite
// replaced; the delta against BenchmarkPlay is the tentpole's win.
func BenchmarkPlayReference(b *testing.B) {
	g, topo, asg := benchScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlayReference(g, topo, asg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaySingleProcessor measures the sequential special case on a
// tight two-level hierarchy (the configuration the repo's Analyze upper
// bounds use most).
func BenchmarkPlaySingleProcessor(b *testing.B) {
	g := gen.Jacobi(2, 16, 6, gen.StencilBox).Graph
	topo := TwoLevel(1, 12, 1<<14)
	asg := SingleProcessor(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlayCtx(context.Background(), g, topo, asg); err != nil {
			b.Fatal(err)
		}
	}
}

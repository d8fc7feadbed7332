package pebble

import (
	"context"
	"testing"

	"cdagio/internal/gen"
)

// benchPlay plays the topological schedule of the 2-D box Jacobi kernel the
// iolb-suite benchmark analyses (128×128 grid, 3 steps, S = 256), trimmed to
// a 32×32 grid under -short.  Graph and schedule are built outside the timed
// loop, so the benchmark isolates the player: use lists, pins and evictions.
func benchPlay(b *testing.B, policy EvictionPolicy) {
	n := 128
	if testing.Short() {
		n = 32
	}
	g := gen.Jacobi(2, n, 3, gen.StencilBox).Graph
	order := nonInputTopo(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlayScheduleCtx(context.Background(), g, RBW, 256, order, policy, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlayScheduleBelady measures the Belady player, whose evictions pop
// the resident value with the farthest next use.
func BenchmarkPlayScheduleBelady(b *testing.B) { benchPlay(b, Belady) }

// BenchmarkPlayScheduleLRU measures the LRU player, whose evictions pop the
// least recently used resident value.
func BenchmarkPlayScheduleLRU(b *testing.B) { benchPlay(b, LRU) }

// TestPlayScheduleAllocationsPerCall pins the player's allocations to a fixed
// number per call: playing the 2-D box Jacobi kernel (3 steps, S = 16) on a
// 32×32 grid (4,096 vertices) may allocate at most 64 more times than on an
// 8×8 grid (256 vertices), where one allocation per step would add
// thousands.
func TestPlayScheduleAllocationsPerCall(t *testing.T) {
	allocs := func(n int, policy EvictionPolicy) float64 {
		g := gen.Jacobi(2, n, 3, gen.StencilBox).Graph
		order := nonInputTopo(g)
		return testing.AllocsPerRun(3, func() {
			if _, err := PlayScheduleCtx(context.Background(), g, RBW, 16, order, policy, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, policy := range []EvictionPolicy{Belady, LRU} {
		small, large := allocs(8, policy), allocs(32, policy)
		t.Logf("%v: %v allocations at n=8, %v at n=32", policy, small, large)
		if large > small+64 {
			t.Errorf("%v: %v allocations at n=32 against %v at n=8: the play allocates per step", policy, large, small)
		}
	}
}

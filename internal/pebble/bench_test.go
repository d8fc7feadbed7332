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

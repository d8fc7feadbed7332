package cdagio

// Ablation benchmarks for the design choices called out in DESIGN.md: which
// lower-bound technique wins on which CDAG family, how much the eviction
// policy matters, how much the schedule matters, and what the executable
// per-iteration theorem bounds add over the closed forms.  These are not
// paper figures; they justify the library's internal structure.

import (
	"context"
	"testing"

	"cdagio/internal/core"
	"cdagio/internal/gen"
	"cdagio/internal/memsim"
	"cdagio/internal/partition"
	"cdagio/internal/pebble"
	"cdagio/internal/wavefront"
)

// BenchmarkAblationBoundTechniques compares the generic lower-bound
// techniques (compulsory I/O, min-cut wavefront, exact optimal search, exact
// U(2S) for Corollary 1) on families where different techniques dominate: the
// FFT butterfly (where wavefronts are weak and the exact search / partition
// reasoning is needed), a CG iteration (where the wavefront bound shines) and
// the outer product (where compulsory I/O already tells the whole story).
func BenchmarkAblationBoundTechniques(b *testing.B) {
	const s = 4
	fft := FFT(4)            // exact search dominates at this scale
	cg := CG(1, 10, 1)       // wavefront bound dominates
	outer := OuterProduct(4) // compulsory bound dominates
	var fftWave, fftExact, cgWave, outerComp float64
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		wf, _, err := Open(fft).WMax(ctx, nil, WMaxOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fftWave = float64(wavefront.Lemma2Bound(wf, 3))
		opt, err := pebble.OptimalIOCtx(ctx, fft, pebble.RBW, 3, pebble.OptimalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fftExact = float64(opt)
		// The exact U(2S) feeding Corollary 1 is also computed to show its
		// cost; at this graph size the resulting bound is the trivial zero.
		if _, err := partition.MaxVertexSetSizeExact(fft, 2*3, 0); err != nil {
			b.Fatal(err)
		}

		w, _, err := Open(cg.Graph).WMax(ctx, []VertexID{cg.AlphaVertex[0], cg.GammaVertex[0]}, WMaxOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cgWave = float64(wavefront.Lemma2Bound(w, s))

		outerComp = float64(outer.NumInputs() + outer.NumOutputs())
	}
	b.ReportMetric(fftWave, "fft-wavefront-LB")
	b.ReportMetric(fftExact, "fft-exact-optimal")
	b.ReportMetric(cgWave, "cg-wavefront-LB")
	b.ReportMetric(outerComp, "outer-compulsory-LB")
}

// BenchmarkAblationEvictionPolicy measures how much the Belady policy saves
// over LRU for the same schedule on an FFT CDAG.
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	g := FFT(64)
	const s = 16
	var belady, lru float64
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rb, err := Open(g).PlayCtx(ctx, RBW, s, nil, Belady, false)
		if err != nil {
			b.Fatal(err)
		}
		rl, err := Open(g).PlayCtx(ctx, RBW, s, nil, LRU, false)
		if err != nil {
			b.Fatal(err)
		}
		belady, lru = float64(rb.IO()), float64(rl.IO())
	}
	b.ReportMetric(belady, "belady-IO")
	b.ReportMetric(lru, "lru-IO")
	b.ReportMetric(lru/belady, "lru/belady")
}

// BenchmarkAblationSchedule measures how much locality-aware schedules save
// over the plain topological order for matmul (blocked) and a 2-D stencil
// (skewed time tiles) at a fixed fast-memory size.
func BenchmarkAblationSchedule(b *testing.B) {
	const s = 64
	mm := MatMul(16)
	jr := Jacobi(2, 24, 8, StencilBox)
	var mmNaive, mmBlocked, jNaive, jTiled float64
	cfg := memsim.Config{Nodes: 1, FastWords: s, Policy: memsim.Belady}
	ctx := context.Background()
	// The per-schedule ablations are independent simulations; fan each
	// graph's schedule set out over the worker pool.  Schedule construction
	// stays inside the timed loop, as in the serial BENCH_1 workload.
	for i := 0; i < b.N; i++ {
		mmJobs := []MemorySweepJob{
			{Cfg: cfg, Order: TopologicalSchedule(mm.Graph)},
			{Cfg: cfg, Order: MatMulBlocked(mm, 4)},
		}
		jrJobs := []MemorySweepJob{
			{Cfg: cfg, Order: TopologicalSchedule(jr.Graph)},
			{Cfg: cfg, Order: StencilSkewed(jr, 5)},
		}
		mmStats, err := Open(mm.Graph).SimulateSweep(ctx, mmJobs, 0)
		if err != nil {
			b.Fatal(err)
		}
		jrStats, err := Open(jr.Graph).SimulateSweep(ctx, jrJobs, 0)
		if err != nil {
			b.Fatal(err)
		}
		mmNaive, mmBlocked = float64(mmStats[0].VerticalTotal()), float64(mmStats[1].VerticalTotal())
		jNaive, jTiled = float64(jrStats[0].VerticalTotal()), float64(jrStats[1].VerticalTotal())
	}
	b.ReportMetric(mmNaive/mmBlocked, "matmul-naive/blocked")
	b.ReportMetric(jNaive/jTiled, "jacobi-naive/tiled")
}

// BenchmarkAblationExecutableTheorem compares the executable per-iteration
// Theorem 8 bound (measured wavefronts on the generated CDAG) against the
// closed form it certifies.
func BenchmarkAblationExecutableTheorem(b *testing.B) {
	cg := gen.CG(1, 16, 2)
	const s = 6
	var tb core.TheoremBound
	for i := 0; i < b.N; i++ {
		tb = core.CGMinCutBound(cg, s)
	}
	b.ReportMetric(float64(tb.Total), "executable-LB")
	b.ReportMetric(tb.ClosedForm, "closed-form-LB")
}

// BenchmarkAblationRecomputation quantifies how much recomputation (the
// Hong–Kung game) can save over the RBW game on the composite CDAG, the
// phenomenon that motivates the paper's model change.
func BenchmarkAblationRecomputation(b *testing.B) {
	const n = 12
	comp := Composite(n)
	var hk, rbw float64
	for i := 0; i < b.N; i++ {
		res, _, err := core.PlayCompositeStrategy(n)
		if err != nil {
			b.Fatal(err)
		}
		hk = float64(res.IO())
		// The RBW game cannot recompute: even with the same fast memory the
		// intermediate matrices must be spilled.
		r, err := Open(comp.Graph).PlayCtx(context.Background(), pebble.RBW, 4*n+6, nil, pebble.Belady, false)
		if err != nil {
			b.Fatal(err)
		}
		rbw = float64(r.IO())
	}
	b.ReportMetric(hk, "hong-kung-strategy-IO")
	b.ReportMetric(rbw, "rbw-no-recompute-IO")
	b.ReportMetric(rbw/hk, "rbw/hk-ratio")
}

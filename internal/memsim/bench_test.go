package memsim

import (
	"context"
	"testing"

	"cdagio/internal/gen"
	"cdagio/internal/sched"
)

// benchInstance builds the shared benchmark workload outside the timed loop:
// a 2-D Jacobi CDAG with its topological schedule and a two-node block
// partition.  The graph construction and scheduling are measured by the gen
// and root-package benchmarks; these benchmarks isolate the simulator itself.
func benchInstance(b *testing.B) (*gen.JacobiResult, []int) {
	b.Helper()
	jr := gen.Jacobi(2, 24, 8, gen.StencilBox)
	owner := sched.BlockPartitionGrid(jr, 2)
	return jr, owner
}

// BenchmarkMemsimRunBelady measures one Belady-policy simulation on a
// two-node machine: the per-visit cost of the predecessor-row replay, the
// use-list construction and the indexed eviction heap.
func BenchmarkMemsimRunBelady(b *testing.B) {
	jr, owner := benchInstance(b)
	order := sched.Topological(jr.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(context.Background(), jr.Graph, Config{Nodes: 2, FastWords: 64, Policy: Belady}, order, owner); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimRunLRU is BenchmarkMemsimRunBelady under the LRU policy,
// whose victim selection skips the next-use scan.
func BenchmarkMemsimRunLRU(b *testing.B) {
	jr, owner := benchInstance(b)
	order := sched.Topological(jr.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(context.Background(), jr.Graph, Config{Nodes: 2, FastWords: 64, Policy: LRU}, order, owner); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimSweep measures the worker-pool sweep over a per-S job list —
// the engine behind the Section 5.4 tightness sweeps — at GOMAXPROCS workers.
func BenchmarkMemsimSweep(b *testing.B) {
	jr, owner := benchInstance(b)
	topo := sched.Topological(jr.Graph)
	skewed := sched.StencilSkewed(jr, 4)
	var jobs []Job
	for _, s := range []int{16, 32, 64, 128, 256} {
		jobs = append(jobs,
			Job{Cfg: Config{Nodes: 1, FastWords: s, Policy: Belady}, Order: topo},
			Job{Cfg: Config{Nodes: 2, FastWords: s, Policy: Belady}, Order: skewed, Owner: owner},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepCtx(context.Background(), jr.Graph, jobs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllocationsPerCall pins the simulator's allocations to a fixed
// number per call: simulating the 2-D box Jacobi kernel (3 steps, 16 fast
// words per node) on a 32×32 grid (4,096 vertices) may allocate at most 64
// more times than on an 8×8 grid (256 vertices), where one allocation per
// step would add thousands.
func TestRunAllocationsPerCall(t *testing.T) {
	allocs := func(n, nodes int, policy Policy) float64 {
		jr := gen.Jacobi(2, n, 3, gen.StencilBox)
		order := sched.Topological(jr.Graph)
		var owner []int
		if nodes > 1 {
			owner = sched.BlockPartitionGrid(jr, nodes)
		}
		cfg := Config{Nodes: nodes, FastWords: 16, Policy: policy}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunCtx(context.Background(), jr.Graph, cfg, order, owner); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, nodes := range []int{1, 2} {
		for _, policy := range []Policy{Belady, LRU} {
			small, large := allocs(8, nodes, policy), allocs(32, nodes, policy)
			t.Logf("%d nodes, %v: %v allocations at n=8, %v at n=32", nodes, policy, small, large)
			if large > small+64 {
				t.Errorf("%d nodes, %v: %v allocations at n=32 against %v at n=8: the simulation allocates per step",
					nodes, policy, large, small)
			}
		}
	}
}

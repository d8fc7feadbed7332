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

package memsim

import (
	"context"
	"reflect"
	"testing"

	"cdagio/internal/gen"
	"cdagio/internal/sched"
)

// TestSweepDeterministicAcrossWorkerCounts runs a mixed sweep (policies,
// fast-memory sizes and multi-node configurations over two graphs' schedules)
// serially and at several worker counts, and requires exactly identical
// per-job statistics every time.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	jr := gen.Jacobi(2, 12, 6, gen.StencilBox)
	g := jr.Graph
	topo := sched.Topological(g)
	owner := sched.BlockPartitionGrid(jr, 2)
	jobs := []Job{
		{Cfg: Config{Nodes: 1, FastWords: 16, Policy: Belady}, Order: topo},
		{Cfg: Config{Nodes: 1, FastWords: 32, Policy: Belady}, Order: sched.StencilSkewed(jr, 4)},
		{Cfg: Config{Nodes: 1, FastWords: 16, Policy: LRU}, Order: topo},
		{Cfg: Config{Nodes: 2, FastWords: 64, Policy: Belady}, Order: topo, Owner: owner},
		{Cfg: Config{Nodes: 1, FastWords: 128, Policy: Belady}, Order: topo},
		{Cfg: Config{Nodes: 2, FastWords: 64, Policy: LRU}, Order: topo, Owner: owner},
	}

	// Serial reference: one Run per job.
	want := make([]*Stats, len(jobs))
	for i, j := range jobs {
		s, err := RunCtx(context.Background(), g, j.Cfg, j.Order, j.Owner)
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		want[i] = s
	}

	for _, workers := range []int{1, 2, 3, 4, 8, 0} {
		got, err := SweepCtx(context.Background(), g, jobs, workers)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Sweep(workers=%d) job %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSweepErrorDeterministic checks that the reported error is the
// lowest-indexed failing job's, independent of worker count.
func TestSweepErrorDeterministic(t *testing.T) {
	g := gen.Chain(6)
	topo := sched.Topological(g)
	jobs := []Job{
		{Cfg: Config{Nodes: 1, FastWords: 4, Policy: Belady}, Order: topo},
		{Cfg: Config{Nodes: 0, FastWords: 4, Policy: Belady}, Order: topo}, // invalid: zero nodes
		{Cfg: Config{Nodes: 1, FastWords: 0, Policy: Belady}, Order: topo}, // invalid: zero words
		{Cfg: Config{Nodes: 1, FastWords: 4, Policy: Belady}, Order: topo},
	}
	var wantErr string
	for i, workers := range []int{1, 2, 4, 0} {
		_, err := SweepCtx(context.Background(), g, jobs, workers)
		if err == nil {
			t.Fatalf("Sweep(workers=%d): expected error", workers)
		}
		if i == 0 {
			wantErr = err.Error()
			continue
		}
		if err.Error() != wantErr {
			t.Fatalf("Sweep(workers=%d) error %q, want %q", workers, err, wantErr)
		}
	}
}

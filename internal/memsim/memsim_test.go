package memsim

import (
	"context"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/sched"
)

func TestRunChain(t *testing.T) {
	g := gen.Chain(20)
	stats, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: 2, Policy: Belady}, sched.Topological(g), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One load of the input, one store of the output.
	if stats.LoadsPerNode[0] != 1 || stats.StoresPerNode[0] != 1 {
		t.Fatalf("chain I/O = %d loads, %d stores; want 1, 1",
			stats.LoadsPerNode[0], stats.StoresPerNode[0])
	}
	if stats.HorizontalTotal() != 0 {
		t.Fatalf("single node has no horizontal traffic")
	}
	if stats.ComputesPerNode[0] != int64(g.NumOperations()) {
		t.Fatalf("computes = %d", stats.ComputesPerNode[0])
	}
	if !strings.Contains(stats.String(), "vertical") {
		t.Fatalf("String = %q", stats.String())
	}
}

func TestRunMatMulCacheSizes(t *testing.T) {
	r := gen.MatMul(8)
	g := r.Graph
	order := sched.Topological(g)
	var prev int64 = -1
	// Shrinking the cache must not decrease vertical traffic.
	for _, s := range []int{4096, 64, 16} {
		stats, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: s, Policy: Belady}, order, nil)
		if err != nil {
			t.Fatalf("Run S=%d: %v", s, err)
		}
		v := stats.VerticalTotal()
		if prev >= 0 && v < prev {
			t.Errorf("S=%d vertical %d below larger-cache value %d", s, v, prev)
		}
		prev = v
	}
	// With an ample cache the traffic is exactly the compulsory 2n²+n².
	stats, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: 1 << 20, Policy: Belady}, order, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := stats.VerticalTotal(), int64(3*8*8); got != want {
		t.Errorf("compulsory traffic = %d, want %d", got, want)
	}
}

func TestRunBlockedBeatsNaiveMatMul(t *testing.T) {
	r := gen.MatMul(12)
	g := r.Graph
	s := 40 // fast memory of 40 values: blocked reuse should pay off
	naive, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: s, Policy: Belady}, sched.Topological(g), nil)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	blocked, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: s, Policy: Belady}, sched.MatMulBlocked(r, 3), nil)
	if err != nil {
		t.Fatalf("blocked: %v", err)
	}
	if blocked.VerticalTotal() >= naive.VerticalTotal() {
		t.Errorf("blocked schedule (%d) not better than naive (%d)",
			blocked.VerticalTotal(), naive.VerticalTotal())
	}
}

func TestRunTwoNodesGhostExchange(t *testing.T) {
	jr := gen.Jacobi(1, 64, 8, gen.StencilStar)
	g := jr.Graph
	owner := sched.BlockPartitionGrid(jr, 2)
	stats, err := RunCtx(context.Background(), g, Config{Nodes: 2, FastWords: 256, Policy: Belady}, sched.Topological(g), owner)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.HorizontalTotal() == 0 {
		t.Errorf("expected ghost-cell remote fetches across the partition boundary")
	}
	// One ghost value per time step per direction: 2 per step.
	if stats.HorizontalTotal() > int64(2*jr.Steps) {
		t.Errorf("horizontal traffic %d exceeds the ghost-cell volume %d",
			stats.HorizontalTotal(), 2*jr.Steps)
	}
	if stats.ComputesPerNode[0] == 0 || stats.ComputesPerNode[1] == 0 {
		t.Errorf("work not distributed: %v", stats.ComputesPerNode)
	}
	if stats.MaxNodeHorizontal() == 0 || stats.MaxNodeVertical() == 0 {
		t.Errorf("per-node maxima not reported")
	}
}

func TestRunPolicies(t *testing.T) {
	g := gen.FFT(32)
	order := sched.Topological(g)
	belady, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: 12, Policy: Belady}, order, nil)
	if err != nil {
		t.Fatalf("belady: %v", err)
	}
	lru, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: 12, Policy: LRU}, order, nil)
	if err != nil {
		t.Fatalf("lru: %v", err)
	}
	if belady.VerticalTotal() > lru.VerticalTotal() {
		t.Errorf("Belady (%d) should not lose to LRU (%d)", belady.VerticalTotal(), lru.VerticalTotal())
	}
	if Belady.String() == "" || LRU.String() == "" || Policy(7).String() == "" {
		t.Errorf("policy names empty")
	}
}

// TestRunErrors pins the full text of every configuration and schedule
// fault the simulator reports.
func TestRunErrors(t *testing.T) {
	chain := gen.Chain(4) // vertices 0(in),1,2,3(out)
	dot := gen.DotProduct(4)
	one := Config{Nodes: 1, FastWords: 4}
	cases := []struct {
		g     *cdag.Graph
		cfg   Config
		order []cdag.VertexID
		want  string
	}{
		{chain, Config{Nodes: 0, FastWords: 4}, sched.Topological(chain), "memsim: need at least one node"},
		{chain, Config{Nodes: 1, FastWords: 0}, sched.Topological(chain), "memsim: need at least one fast-memory word"},
		{chain, one, []cdag.VertexID{0, 1, 2, 3}, "memsim: input vertex 0 scheduled for compute"},
		{chain, one, []cdag.VertexID{1, 1, 2, 3}, "memsim: vertex 1 scheduled twice"},
		{chain, one, []cdag.VertexID{1, 2}, "memsim: vertex 3 missing from schedule"},
		{chain, one, []cdag.VertexID{2, 1, 3}, "memsim: vertex 2 scheduled before its predecessor 1"},
		{chain, one, []cdag.VertexID{1, 2, 99}, "memsim: vertex 99 out of range"},
		{dot, Config{Nodes: 1, FastWords: 2}, sched.Topological(dot), "memsim: fast memory 2 too small for in-degree 2"},
	}
	for i, c := range cases {
		if _, err := RunCtx(context.Background(), c.g, c.cfg, c.order, nil); err == nil || err.Error() != c.want {
			t.Errorf("case %d: error %v, want %q", i, err, c.want)
		}
	}
}

func TestRunAgreesWithPebblePlayerOnOuterProduct(t *testing.T) {
	// The single-node simulator and the RBW schedule player model the same
	// two-level machine, so on a simple CDAG with an ample cache they must
	// agree exactly: compulsory loads of the inputs plus stores of the
	// outputs.
	n := 5
	g := gen.OuterProduct(n)
	stats, err := RunCtx(context.Background(), g, Config{Nodes: 1, FastWords: 1024, Policy: Belady}, sched.Topological(g), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.LoadsPerNode[0] != int64(2*n) || stats.StoresPerNode[0] != int64(n*n) {
		t.Errorf("outer product I/O = %d + %d, want %d + %d",
			stats.LoadsPerNode[0], stats.StoresPerNode[0], 2*n, n*n)
	}
}

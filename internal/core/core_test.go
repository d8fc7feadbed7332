package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/machine"
	"cdagio/internal/memsim"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
)

// analyze runs a one-off analysis of g on a fresh Workspace.
func analyze(g *cdag.Graph, opts Options) (*Analysis, error) {
	return NewWorkspace(g).Analyze(context.Background(), opts)
}

func TestAnalyzeSmallGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"fft4", func(t *testing.T) {
			g := gen.FFT(4)
			a, err := analyze(g, Options{FastMemory: 3, ExactOptimalLimit: 16, WavefrontCandidates: -1})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			best := a.BestLower()
			if best.Value <= 0 {
				t.Fatalf("no nontrivial lower bound: %+v", a.LowerBounds)
			}
			if a.Upper.Value < best.Value {
				t.Fatalf("upper bound %v below lower bound %v", a.Upper.Value, best.Value)
			}
			if a.ExactOptimal == nil {
				t.Fatalf("exact optimal expected for 12-vertex graph")
			}
			if a.Upper.Value < a.ExactOptimal.Value {
				t.Fatalf("measured I/O below exact optimum")
			}
			if !strings.Contains(a.Report(), "lower bound") {
				t.Errorf("report missing content")
			}
		}},
		{"jacobi", func(t *testing.T) {
			jr := gen.Jacobi(1, 16, 4, gen.StencilStar)
			a, err := analyze(jr.Graph, Options{FastMemory: 6})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if a.BestLower().Value < float64(jr.Graph.NumInputs()+jr.Graph.NumOutputs()) {
				t.Fatalf("lower bound below compulsory I/O")
			}
			if a.Gap() < 1 {
				t.Fatalf("gap below 1: %v", a.Gap())
			}
		}},
		{"cg-wavefront", func(t *testing.T) {
			cg := gen.CG(1, 8, 1)
			a, err := analyze(cg.Graph, Options{FastMemory: 4, WavefrontCandidates: 64})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			// The wavefront bound should see at least one live vector (n=8).
			if a.WMax < 8 {
				t.Errorf("CG wmax = %d, want >= 8", a.WMax)
			}
		}},
		{"dot-huge-S", func(t *testing.T) {
			// 2S overflows int at S = 2^62; the exact U(2S) search must still
			// run with every In/Out size in range, so all 7 operations form
			// one set and Corollary 1 gives S·(7/7 − 1) = 0.
			a, err := analyze(gen.DotProduct(4), Options{FastMemory: 1 << 62})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			for _, b := range a.LowerBounds {
				if b.Technique == "2S-partition (Corollary 1)" {
					if b.Value != 0 || b.Assumptions != "exact U(2S) = 7" {
						t.Fatalf("Corollary 1 entry = %+v, want value 0 with U(2S) = 7", b)
					}
					return
				}
			}
			t.Fatalf("no Corollary 1 entry among %+v", a.LowerBounds)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func TestAnalyzeCustomScheduleAndErrors(t *testing.T) {
	r := gen.MatMul(4)
	blocked := sched.MatMulBlocked(r, 2)
	a, err := analyze(r.Graph, Options{FastMemory: 20, Schedule: blocked})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.ScheduleUsed != "caller-supplied" {
		t.Errorf("schedule label = %q", a.ScheduleUsed)
	}
	naive, err := analyze(r.Graph, Options{FastMemory: 20})
	if err != nil {
		t.Fatalf("Analyze naive: %v", err)
	}
	if a.MeasuredIO > naive.MeasuredIO {
		t.Errorf("blocked schedule I/O %d worse than naive %d", a.MeasuredIO, naive.MeasuredIO)
	}
	if _, err := analyze(r.Graph, Options{FastMemory: 0}); err == nil {
		t.Errorf("expected error for S=0")
	}
	if _, err := analyze(gen.DotProduct(8), Options{FastMemory: 2}); err == nil {
		t.Errorf("expected error for S below in-degree")
	}
}

// TestAnalyzeParallel plays a round-robin assignment of a dot product on a
// two-node hierarchy through the Workspace, converts a sequential bound to a
// per-node vertical bound with Theorem 5, and checks that the
// single-processor assignment on one node moves no data between nodes.
func TestAnalyzeParallel(t *testing.T) {
	g := gen.DotProduct(16)
	ws := NewWorkspace(g)
	ctx := context.Background()
	topo := prbw.Distributed(2, 1, 4, 32, 4096)
	stats, err := ws.PlayParallel(ctx, topo, prbw.RoundRobin(g, 2, 8))
	if err != nil {
		t.Fatalf("PlayParallel: %v", err)
	}
	if stats.TotalComputes() != int64(g.NumOperations()) {
		t.Errorf("computes = %d", stats.TotalComputes())
	}
	seq := bounds.Bound{Value: 34, Kind: bounds.Lower, Technique: "sequential bound"}
	if v := bounds.VerticalFromSequential(seq, topo.Units(topo.NumLevels())); v.Value != 17 {
		t.Errorf("Theorem 5 conversion = %v, want 17", v.Value)
	}
	single, err := ws.PlayParallel(ctx, prbw.TwoLevel(1, 4, 1024), prbw.SingleProcessor(g))
	if err != nil {
		t.Fatalf("PlayParallel single processor: %v", err)
	}
	if single.HorizontalTraffic() != 0 {
		t.Errorf("single node should have no horizontal traffic")
	}
}

// TestMemsimUpperBoundHelper measures a two-node block partition of a Jacobi
// sweep with the Workspace's simulator: its traffic is the measured upper
// bound the vertical and horizontal lower bounds are compared against.
func TestMemsimUpperBoundHelper(t *testing.T) {
	jr := gen.Jacobi(1, 32, 4, gen.StencilStar)
	cfg := memsim.Config{Nodes: 2, FastWords: 64, Policy: memsim.Belady}
	stats, err := NewWorkspace(jr.Graph).Simulate(context.Background(), cfg,
		sched.Topological(jr.Graph), sched.BlockPartitionGrid(jr, 2))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if stats.VerticalTotal() <= 0 {
		t.Errorf("no vertical traffic measured")
	}
}

// TestDominatorLowerBound checks the minimum dominator of the FFT outputs.
func TestDominatorLowerBound(t *testing.T) {
	g := gen.FFT(8)
	outs := cdag.NewVertexSet(g.NumVertices())
	outs.AddAll(g.Outputs())
	k, dom, err := NewWorkspace(g).MinDominatorSize(context.Background(), outs)
	if err != nil || k != 8 || len(dom) != 8 {
		t.Errorf("FFT dominator = %d (%v, %v), want 8", k, dom, err)
	}
}

func TestEvaluateCGMatchesPaper(t *testing.T) {
	p := bounds.CGParams{Dim: 3, N: 1000, Iterations: 100, Processors: 2048 * 16, Nodes: 2048}
	ev, err := EvaluateCG(p, machine.Table1())
	if err != nil {
		t.Fatalf("EvaluateCG: %v", err)
	}
	if math.Abs(ev.VerticalPerFlop-0.3) > 1e-9 {
		t.Errorf("vertical per FLOP = %v, want 0.3", ev.VerticalPerFlop)
	}
	for _, r := range ev.VerticalRows {
		if r.Verdict.String() != "bandwidth bound" {
			t.Errorf("CG vertical on %s: %v", r.Machine, r.Verdict)
		}
	}
	for _, r := range ev.HorizontalRows {
		if r.Verdict.String() != "not bandwidth bound" {
			t.Errorf("CG horizontal on %s: %v", r.Machine, r.Verdict)
		}
	}
	if !strings.Contains(ev.Report(), "0.3") {
		t.Errorf("report missing headline value:\n%s", ev.Report())
	}
}

func TestEvaluateGMRESSweep(t *testing.T) {
	ev, err := EvaluateGMRES(3, 1000, 2048*16, 2048, []int{1, 10, 100, 1000}, machine.Table1())
	if err != nil {
		t.Fatalf("EvaluateGMRES: %v", err)
	}
	if len(ev.VerticalPerFlop) != 4 {
		t.Fatalf("sweep length wrong")
	}
	// 6/(m+20) decreases with m.
	for i := 1; i < len(ev.VerticalPerFlop); i++ {
		if ev.VerticalPerFlop[i] >= ev.VerticalPerFlop[i-1] {
			t.Errorf("vertical per FLOP not decreasing at %d", i)
		}
	}
	// m=1: 6/21; m=1000: 6/1020.
	if math.Abs(ev.VerticalPerFlop[0]-6.0/21) > 1e-9 || math.Abs(ev.VerticalPerFlop[3]-6.0/1020) > 1e-9 {
		t.Errorf("sweep endpoints wrong: %v", ev.VerticalPerFlop)
	}
	if !strings.Contains(ev.Report(), "GMRES") {
		t.Errorf("report missing content")
	}
}

func TestEvaluateJacobi(t *testing.T) {
	ev, err := EvaluateJacobi(machine.IBMBGQ(), 6)
	if err != nil {
		t.Fatalf("EvaluateJacobi: %v", err)
	}
	// Common dimensions are not bandwidth bound; the threshold is finite.
	for d := 1; d <= 3; d++ {
		if ev.VerdictByDim[d].String() != "not bandwidth bound" {
			t.Errorf("d=%d verdict = %v", d, ev.VerdictByDim[d])
		}
	}
	if math.IsInf(ev.ThresholdDim, 1) || ev.ThresholdDim < 4 {
		t.Errorf("threshold dimension = %v", ev.ThresholdDim)
	}
	if !strings.Contains(ev.Report(), "threshold") {
		t.Errorf("report missing threshold")
	}
	// A machine without balance data fails cleanly.
	if _, err := EvaluateJacobi(machine.Machine{Name: "x", Nodes: 1, CoresPerNode: 1, FlopsPerCore: 1, MainMemoryWords: 1}, 3); err == nil {
		t.Errorf("expected error for machine without balance")
	}
}

func TestCompositeStrategyMatchesPaper(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		ev, err := EvaluateComposite(n)
		if err != nil {
			t.Fatalf("n=%d: EvaluateComposite: %v", n, err)
		}
		if ev.StrategyIO != 4*n+1 {
			t.Errorf("n=%d: strategy I/O = %d, want %d", n, ev.StrategyIO, 4*n+1)
		}
		// The composite's achievable I/O sits below the naive per-step sum —
		// the motivation for the decomposition machinery.
		if float64(ev.StrategyIO) >= ev.PerStepSum {
			t.Errorf("n=%d: strategy I/O %d not below per-step sum %v", n, ev.StrategyIO, ev.PerStepSum)
		}
		if !strings.Contains(ev.Report(), "recomputation") {
			t.Errorf("report missing content")
		}
	}
	// For larger n the strategy even beats the matmul-alone lower bound,
	// illustrating that sub-computation bounds cannot simply be reused.
	ev, err := EvaluateComposite(64)
	if err != nil {
		t.Fatalf("EvaluateComposite(64): %v", err)
	}
	if float64(ev.StrategyIO) >= ev.MatMulAloneLower {
		t.Errorf("strategy I/O %d should undercut the matmul-alone bound %v for n=64",
			ev.StrategyIO, ev.MatMulAloneLower)
	}
	// n < 1 has no composite CDAG: an error, not a generator panic.
	for _, n := range []int{0, -4} {
		if ev, err := EvaluateComposite(n); err == nil || ev != nil {
			t.Errorf("EvaluateComposite(%d) = (%v, %v), want an error", n, ev, err)
		}
	}
}

func TestTable1Report(t *testing.T) {
	out := Table1Report()
	for _, want := range []string{"IBM BG/Q", "Cray XT5", "0.052", "0.058"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1Report missing %q", want)
		}
	}
}

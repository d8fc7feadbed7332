package cdagio

import (
	"context"
	"math"
	"strings"
	"testing"

	"cdagio/internal/memsim"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
)

// TestFacadeEndToEnd exercises the public API the way the README shows it:
// generate a CDAG, open a Workspace on it, play games, analyze it, and run
// the paper's evaluation entry points.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	// Generators.
	jr := Jacobi(2, 8, 3, StencilBox)
	if jr.Graph.NumVertices() != 64*4 {
		t.Fatalf("Jacobi CDAG size %d", jr.Graph.NumVertices())
	}
	mm := MatMul(4)
	if mm.Graph.NumOutputs() != 16 {
		t.Fatalf("MatMul outputs %d", mm.Graph.NumOutputs())
	}
	if FFT(8).NumVertices() != 32 || Chain(5).NumVertices() != 5 ||
		DotProduct(4).NumOutputs() != 1 || OuterProduct(3).NumOutputs() != 9 ||
		Saxpy(3).NumOutputs() != 3 || ReductionTree(4).NumOutputs() != 1 ||
		Pyramid(3).NumOutputs() != 1 || BinomialTree(2).NumInputs() != 4 {
		t.Fatalf("generator facade wrong")
	}

	// Sequential game (a nil order plays the topological schedule).
	ws := Open(jr.Graph)
	res, err := ws.PlayCtx(ctx, RBW, 32, nil, Belady, false)
	if err != nil {
		t.Fatalf("PlayCtx: %v", err)
	}
	if res.IO() < jr.Graph.NumInputs()+jr.Graph.NumOutputs() {
		t.Fatalf("I/O below compulsory")
	}
	skewed, err := ws.PlayCtx(ctx, RBW, 32, StencilSkewed(jr, 4), Belady, false)
	if err != nil {
		t.Fatalf("PlayCtx skewed: %v", err)
	}
	if skewed.IO() <= 0 {
		t.Fatalf("skewed I/O zero")
	}
	if _, err := Open(Chain(4)).OptimalIO(ctx, RBW, 2, pebble.OptimalOptions{}); err != nil {
		t.Fatalf("OptimalIO: %v", err)
	}

	// Manual game via the facade.
	g := Chain(3)
	game := NewGame(g, RBW, 2, false)
	if err := game.Apply(pebble.Move{Kind: pebble.Load, V: 0}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	// Analysis.
	an, err := ws.Analyze(ctx, AnalyzeOptions{FastMemory: 32})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if an.BestLower().Value <= 0 || an.Upper.Value < an.BestLower().Value {
		t.Fatalf("analysis inconsistent: %+v", an)
	}

	// Parallel game and simulator.
	topo := Distributed(2, 1, 12, 64, 1<<16)
	stats, err := ws.PlayParallel(ctx, topo, prbw.OwnerCompute(jr.Graph, BlockPartitionGrid(jr, 2)))
	if err != nil {
		t.Fatalf("PlayParallel: %v", err)
	}
	if stats.TotalComputes() != int64(jr.Graph.NumOperations()) {
		t.Fatalf("parallel computes wrong")
	}
	sim, err := ws.Simulate(ctx, memsim.Config{Nodes: 2, FastWords: 64, Policy: memsim.Belady},
		TopologicalSchedule(jr.Graph), BlockPartitionGrid(jr, 2))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if sim.VerticalTotal() <= 0 {
		t.Fatalf("simulator measured nothing")
	}

	// Wavefronts and closed-form bounds.
	cg := CG(1, 6, 1)
	cgws := Open(cg.Graph)
	if w, err := cgws.WavefrontAt(ctx, cg.AlphaVertex[0]); err != nil || w < 12 {
		t.Fatalf("CG wavefront too small: %d (%v)", w, err)
	}
	if w, at, err := cgws.WMax(ctx, []VertexID{cg.AlphaVertex[0]}, WMaxOptions{}); err != nil || w < 12 || at != cg.AlphaVertex[0] {
		t.Fatalf("WMax wrong: %d at %d (%v)", w, at, err)
	}
	if MatMulLower(10, 8).Value <= 0 || FFTLower(64, 8).Value <= 0 {
		t.Fatalf("closed forms not positive")
	}
	if JacobiLower(JacobiParams{Dim: 2, N: 10, Steps: 5, Processors: 1, Nodes: 1}, 8).Value <= 0 {
		t.Fatalf("Jacobi bound not positive")
	}
	if CGVerticalLower(CGParams{Dim: 2, N: 10, Iterations: 2, Processors: 1, Nodes: 1}, 8).Value <= 0 {
		t.Fatalf("CG bound not positive")
	}
	if GMRESVerticalLower(GMRESParams{Dim: 2, N: 10, Iterations: 2, Processors: 1, Nodes: 1}, 8).Value <= 0 {
		t.Fatalf("GMRES bound not positive")
	}
	if CGHorizontalUpper(CGParams{Dim: 2, N: 10, Iterations: 2, Nodes: 4}).Value <= 0 ||
		GMRESHorizontalUpper(GMRESParams{Dim: 2, N: 10, Iterations: 2, Nodes: 4}).Value <= 0 ||
		JacobiHorizontal(JacobiParams{Dim: 2, N: 10, Steps: 5, Nodes: 4}).Value <= 0 {
		t.Fatalf("horizontal bounds not positive")
	}

	// Machines and evaluations.
	if m, err := LookupMachine("IBM BG/Q"); err != nil || m.Nodes != 2048 {
		t.Fatalf("LookupMachine: %v", err)
	}
	gm := GenericMachine("toy", 2, 2, 1e9, 1024, 1<<20, 1e9, 1e8)
	if gm.TotalCores() != 4 {
		t.Fatalf("GenericMachine wrong")
	}
	if !strings.Contains(Table1Report(), "IBM BG/Q") {
		t.Fatalf("Table1Report wrong")
	}
	bgq := IBMBGQ()
	cgev, err := EvaluateCG(CGParams{Dim: 3, N: 1000, Iterations: 10,
		Processors: bgq.Nodes * bgq.CoresPerNode, Nodes: bgq.Nodes}, Table1Machines())
	if err != nil || math.Abs(cgev.VerticalPerFlop-0.3) > 1e-9 {
		t.Fatalf("EvaluateCG: %v %v", err, cgev)
	}
	if _, err := EvaluateGMRES(3, 1000, bgq.Nodes*bgq.CoresPerNode, bgq.Nodes, []int{5}, Table1Machines()); err != nil {
		t.Fatalf("EvaluateGMRES: %v", err)
	}
	if _, err := EvaluateJacobi(bgq, 4); err != nil {
		t.Fatalf("EvaluateJacobi: %v", err)
	}
	comp, err := EvaluateComposite(8)
	if err != nil || comp.StrategyIO != 33 {
		t.Fatalf("EvaluateComposite: %v %+v", err, comp)
	}

	// Topology construction from a machine.
	ft := TopologyFromMachine(bgq, 32, 4096)
	if ft.Nodes() != 2048 {
		t.Fatalf("TopologyFromMachine wrong")
	}
	if TwoLevel(2, 4, 64).NumLevels() != 2 {
		t.Fatalf("TwoLevel wrong")
	}

	// Heat-equation and SpMV generators.
	heat := HeatEquation1DGraph(8, 2)
	if heat.Graph.NumInputs() != 8 || heat.Graph.NumOutputs() != 8 {
		t.Fatalf("heat CDAG tags wrong")
	}
	sp := SpMV(3, [][]int{{0, 1}, {1, 2}, {2}})
	if sp.Graph.NumOutputs() != 3 {
		t.Fatalf("SpMV CDAG wrong")
	}

	// Executable theorem bounds.
	tb := CGMinCutBound(cg, 4)
	if tb.Total <= 0 || len(tb.PerIteration) != 1 {
		t.Fatalf("CGMinCutBound wrong: %+v", tb)
	}
	gmres := GMRES(1, 6, 2)
	tbg := GMRESMinCutBound(gmres, 4)
	if tbg.Total <= 0 || len(tbg.PerIteration) != 2 {
		t.Fatalf("GMRESMinCutBound wrong: %+v", tbg)
	}

	// Tracer.
	tr := NewTracer("t")
	a := tr.Input("a", 2)
	b := tr.Input("b", 3)
	tr.Output(tr.Mul(a, b))
	if tr.Graph().NumVertices() != 3 {
		t.Fatalf("tracer facade wrong")
	}

	// Graph construction.
	ng := NewGraph("manual", 2)
	x := ng.AddInput("x")
	y := ng.AddOutput("y")
	ng.AddEdge(x, y)
	if ng.NumEdges() != 1 {
		t.Fatalf("manual graph wrong")
	}

	// Blocked matmul schedule through the facade.
	if len(MatMulBlocked(mm, 2)) != mm.Graph.NumOperations() {
		t.Fatalf("MatMulBlocked wrong")
	}
}

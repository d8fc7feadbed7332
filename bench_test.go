package cdagio

// The benchmarks in this file regenerate every table, figure and in-text
// analysis number of the paper's evaluation (Section 5) plus the Section 3
// composite example.  Each benchmark reports the reproduced quantities via
// b.ReportMetric so that `go test -bench=. -benchmem` produces the numbers
// recorded in EXPERIMENTS.md:
//
//	Table 1   -> BenchmarkTable1MachineBalance
//	Figure 1  -> BenchmarkFig1HierarchyModel
//	Figure 2  -> BenchmarkFig2HeatDiscretization
//	Figure 3  -> BenchmarkFig3CGSolver
//	Figure 4  -> BenchmarkFig4GMRESSolver
//	Section 3 -> BenchmarkSec3CompositeExample
//	Thm 8 / §5.2.3 -> BenchmarkCGBalanceAnalysis
//	Thm 9 / §5.3.3 -> BenchmarkGMRESBalanceAnalysis
//	Thm 10 / §5.4.3 -> BenchmarkJacobiBalanceAnalysis, BenchmarkJacobiTightness
//	§2/§3 matmul baseline -> BenchmarkMatMulIOBound
//	Thms 5-7 -> BenchmarkParallelBoundScaling

import (
	"context"
	"math"
	"testing"

	"cdagio/internal/linalg"
	"cdagio/internal/memsim"
	"cdagio/internal/prbw"
	"cdagio/internal/solvers"
)

// BenchmarkTable1MachineBalance reproduces Table 1: the vertical and
// horizontal machine-balance parameters of the IBM BG/Q and Cray XT5.
func BenchmarkTable1MachineBalance(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, m := range Table1Machines() {
			vb, err := m.VerticalBalance()
			if err != nil {
				b.Fatal(err)
			}
			hb, err := m.HorizontalBalance()
			if err != nil {
				b.Fatal(err)
			}
			sink += vb + hb
		}
	}
	bgq := IBMBGQ()
	xt5 := CrayXT5()
	vb1, _ := bgq.VerticalBalance()
	hb1, _ := bgq.HorizontalBalance()
	vb2, _ := xt5.VerticalBalance()
	hb2, _ := xt5.HorizontalBalance()
	b.ReportMetric(vb1, "BGQ-vert-w/F")
	b.ReportMetric(hb1, "BGQ-horiz-w/F")
	b.ReportMetric(vb2, "XT5-vert-w/F")
	b.ReportMetric(hb2, "XT5-horiz-w/F")
	_ = sink
}

// BenchmarkFig1HierarchyModel exercises the Figure-1 machine model: a
// multi-node, multi-level storage hierarchy on which the P-RBW game runs.
func BenchmarkFig1HierarchyModel(b *testing.B) {
	jr := Jacobi(1, 48, 6, StencilStar)
	g := jr.Graph
	topo := Distributed(2, 2, 8, 96, 1<<18)
	owner := BlockPartitionGrid(jr, 2)
	// Spread each node's vertices over its two processors.
	procOwner := make([]int, len(owner))
	for v, nd := range owner {
		procOwner[v] = nd*2 + v%2
	}
	asg := prbw.OwnerCompute(g, procOwner)
	var stats *ParallelStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = Open(g).PlayParallel(context.Background(), topo, asg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.VerticalTraffic(2)), "cache-mem-words")
	b.ReportMetric(float64(stats.HorizontalTraffic()), "remote-get-words")
	b.ReportMetric(float64(stats.TotalComputes()), "computes")
}

// BenchmarkFig2HeatDiscretization runs the Section 5.1 / Figure 2 workload:
// the Crank–Nicolson discretized 1-D heat equation, both as a real solve and
// as a CDAG whose data movement the pebble game measures.
func BenchmarkFig2HeatDiscretization(b *testing.B) {
	n := 256
	u0 := linalg.NewVector(n)
	for i := range u0 {
		u0[i] = math.Sin(math.Pi * float64(i+1) / float64(n+1))
	}
	var flops int64
	for i := 0; i < b.N; i++ {
		_, stats, err := solvers.HeatEquation1D(u0, 0.4, 64)
		if err != nil {
			b.Fatal(err)
		}
		flops = stats.Flops
	}
	b.StopTimer()
	heat := HeatEquation1DGraph(64, 8)
	res, err := Open(heat.Graph).PlayCtx(context.Background(), RBW, 16, nil, Belady, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(flops), "flops/solve")
	b.ReportMetric(float64(res.IO()), "CDAG-IO(n=64,T=8,S=16)")
	b.ReportMetric(float64(heat.Graph.CriticalPathLength()), "CDAG-critical-path")
}

// BenchmarkFig3CGSolver runs the Figure-3 CG pseudocode as a real solver and
// checks the CDAG work against the paper's 20·n^d·T operation-count model.
func BenchmarkFig3CGSolver(b *testing.B) {
	grid := linalg.NewGrid(2, 24)
	a := grid.Laplacian()
	f := linalg.NewVector(grid.Points())
	for i := range f {
		f[i] = math.Sin(float64(i + 1))
	}
	var iters int
	for i := 0; i < b.N; i++ {
		_, stats, err := solvers.CG(solvers.CSROperator{M: a}, f, solvers.CGOptions{Tolerance: 1e-8})
		if err != nil {
			b.Fatal(err)
		}
		iters = stats.Iterations
	}
	b.StopTimer()
	cg := CG(2, 8, 2)
	perIterVertices := float64(cg.Graph.NumOperations()) / 2
	model := float64((4*2 + 8) * 8 * 8) // (4d+8)·n^d per iteration
	b.ReportMetric(float64(iters), "solver-iterations")
	b.ReportMetric(perIterVertices/model, "CDAG-work/model-work")
}

// BenchmarkFig4GMRESSolver runs the Figure-4 GMRES pseudocode as a real
// solver and reports the growth of the per-iteration CDAG work with the
// Krylov dimension.
func BenchmarkFig4GMRESSolver(b *testing.B) {
	n := 60
	builder := linalg.NewCSRBuilder(n, n)
	for i := 0; i < n; i++ {
		builder.Add(i, i, 4)
		if i+1 < n {
			builder.Add(i, i+1, -1.6)
		}
		if i > 0 {
			builder.Add(i, i-1, -0.4)
		}
	}
	a := builder.Build()
	rhs := linalg.NewVector(n).Fill(1)
	var iters int
	for i := 0; i < b.N; i++ {
		_, stats, err := solvers.GMRES(solvers.CSROperator{M: a}, rhs, solvers.GMRESOptions{Tolerance: 1e-9, Restart: 30})
		if err != nil {
			b.Fatal(err)
		}
		iters = stats.Iterations
	}
	b.StopTimer()
	gm := GMRES(2, 6, 4)
	growth := float64(gm.IterationVertices[3].Len()) / float64(gm.IterationVertices[0].Len())
	b.ReportMetric(float64(iters), "solver-iterations")
	b.ReportMetric(growth, "iter4/iter1-CDAG-work")
}

// BenchmarkSec3CompositeExample replays the Section-3 recomputation strategy:
// the composite CDAG completes with 4n+1 I/O, far below both the naive
// per-step composition and the matmul-alone lower bound.
func BenchmarkSec3CompositeExample(b *testing.B) {
	const n = 48
	var ev *CompositeEvaluationResult
	for i := 0; i < b.N; i++ {
		e, err := EvaluateComposite(n)
		if err != nil {
			b.Fatal(err)
		}
		ev = e
	}
	b.ReportMetric(float64(ev.StrategyIO), "strategy-IO")
	b.ReportMetric(float64(4*n+1), "paper-4n+1")
	b.ReportMetric(ev.MatMulAloneLower, "matmul-alone-LB")
	b.ReportMetric(ev.PerStepSum, "naive-per-step-sum")
}

// BenchmarkCGBalanceAnalysis reproduces Section 5.2.3: the vertical
// bound-per-FLOP of 0.3 words/FLOP for 3-D CG (above every Table-1 balance)
// and the much smaller horizontal upper bound.
func BenchmarkCGBalanceAnalysis(b *testing.B) {
	bgq := IBMBGQ()
	p := CGParams{Dim: 3, N: 1000, Iterations: 100,
		Processors: bgq.Nodes * bgq.CoresPerNode, Nodes: bgq.Nodes}
	var ev *CGEvaluationResult
	for i := 0; i < b.N; i++ {
		e, err := EvaluateCG(p, Table1Machines())
		if err != nil {
			b.Fatal(err)
		}
		ev = e
	}
	bound := 0
	for _, r := range ev.VerticalRows {
		if r.Verdict.String() == "bandwidth bound" {
			bound++
		}
	}
	b.ReportMetric(ev.VerticalPerFlop, "LBvert-per-flop(paper:0.3)")
	b.ReportMetric(ev.HorizPerFlop, "UBhoriz-per-flop")
	b.ReportMetric(float64(bound), "machines-vertically-bound")
}

// BenchmarkGMRESBalanceAnalysis reproduces Section 5.3.3: the 6/(m+20)
// vertical bound per FLOP across a restart sweep and the m value at which the
// bound drops below the BG/Q balance.
func BenchmarkGMRESBalanceAnalysis(b *testing.B) {
	bgq := IBMBGQ()
	sweep := []int{1, 5, 10, 50, 100, 500, 1000}
	var ev *GMRESEvaluationResult
	for i := 0; i < b.N; i++ {
		e, err := EvaluateGMRES(3, 1000, bgq.Nodes*bgq.CoresPerNode, bgq.Nodes, sweep, Table1Machines())
		if err != nil {
			b.Fatal(err)
		}
		ev = e
	}
	beta, _ := bgq.VerticalBalance()
	crossover := math.Ceil(6/beta - 20) // smallest m with 6/(m+20) <= balance
	b.ReportMetric(ev.VerticalPerFlop[0], "m=1-LB-per-flop(paper:6/21)")
	b.ReportMetric(ev.VerticalPerFlop[len(sweep)-1], "m=1000-LB-per-flop")
	b.ReportMetric(crossover, "BGQ-crossover-m")
}

// BenchmarkJacobiBalanceAnalysis reproduces Section 5.4.3: the per-dimension
// balance criterion 1/(4·(2S)^{1/d}) on the BG/Q main-memory/L2 boundary and
// the threshold dimension beyond which stencils become bandwidth bound.
func BenchmarkJacobiBalanceAnalysis(b *testing.B) {
	var ev *JacobiEvaluationResult
	for i := 0; i < b.N; i++ {
		e, err := EvaluateJacobi(IBMBGQ(), 8)
		if err != nil {
			b.Fatal(err)
		}
		ev = e
	}
	b.ReportMetric(ev.PerFlopByDim[2], "d2-traffic-per-flop")
	b.ReportMetric(ev.PerFlopByDim[5], "d5-traffic-per-flop")
	b.ReportMetric(ev.ThresholdDim, "threshold-dim(paper:4.83)")
}

// BenchmarkJacobiTightness checks the tightness remark of Section 5.4.1: the
// measured I/O of a skewed time-tiled 2-D Jacobi schedule (tile ≈ √(S/2))
// tracks the Theorem 10 lower bound — both the constant-factor gap and the
// ~1/√S scaling of traffic with the fast-memory size.
func BenchmarkJacobiTightness(b *testing.B) {
	const (
		n     = 48
		steps = 24
	)
	jr := Jacobi(2, n, steps, StencilBox)
	g := jr.Graph
	sizes := []int{32, 128}
	measured := make([]float64, len(sizes))
	lower := make([]float64, len(sizes))
	// The per-S simulations are independent: build the tiled schedules, then
	// fan the memory simulations out over the bounded worker pool.  The sweep
	// results are identical to the serial per-S loop.  Schedule construction
	// stays inside the timed loop so the recorded numbers remain comparable
	// with the serial BENCH_1 workload.
	for i := 0; i < b.N; i++ {
		jobs := make([]MemorySweepJob, len(sizes))
		for si, s := range sizes {
			tile := int(math.Sqrt(float64(s) / 2))
			if tile < 2 {
				tile = 2
			}
			jobs[si] = MemorySweepJob{
				Cfg:   memsim.Config{Nodes: 1, FastWords: s, Policy: memsim.Belady},
				Order: StencilSkewed(jr, tile),
			}
		}
		stats, err := Open(g).SimulateSweep(context.Background(), jobs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for si, s := range sizes {
			measured[si] = float64(stats[si].VerticalTotal())
			lower[si] = JacobiLower(JacobiParams{Dim: 2, N: n, Steps: steps, Processors: 1, Nodes: 1}, int64(s)).Value
		}
	}
	// Scaling exponent of measured traffic vs S (theory: −1/2).
	scaling := math.Log(measured[1]/measured[0]) / math.Log(float64(sizes[1])/float64(sizes[0]))
	b.ReportMetric(measured[0]/lower[0], "S32-measured/LB")
	b.ReportMetric(measured[1]/lower[1], "S128-measured/LB")
	b.ReportMetric(scaling, "traffic-vs-S-exponent(theory:-0.5)")
}

// BenchmarkMatMulIOBound reproduces the Section 2/3 matmul baseline: measured
// I/O of naive and blocked schedules against the n³/(2√(2S)) lower bound,
// including the ~1/√S scaling of the blocked schedule's traffic.
func BenchmarkMatMulIOBound(b *testing.B) {
	const n = 20
	r := MatMul(n)
	g := r.Graph
	sizes := []int{32, 128}
	blockedTraffic := make([]float64, len(sizes))
	var naiveRatio, blockedRatio float64
	// Per-S blocked runs plus the naive baseline are independent simulations:
	// build the schedules, then fan out over the worker pool (jobs 0..1 are
	// the blocked sweep, job 2 the naive baseline at the smallest S).
	// Blocked-schedule construction stays inside the timed loop — and the
	// naive order outside it — exactly as in the serial BENCH_1 workload, so
	// the recorded numbers remain comparable.
	naiveOrder := TopologicalSchedule(g)
	for i := 0; i < b.N; i++ {
		jobs := make([]MemorySweepJob, 0, len(sizes)+1)
		for _, s := range sizes {
			block := int(math.Sqrt(float64(s) / 3))
			if block < 2 {
				block = 2
			}
			jobs = append(jobs, MemorySweepJob{
				Cfg:   memsim.Config{Nodes: 1, FastWords: s, Policy: memsim.Belady},
				Order: MatMulBlocked(r, block),
			})
		}
		jobs = append(jobs, MemorySweepJob{
			Cfg:   memsim.Config{Nodes: 1, FastWords: sizes[0], Policy: memsim.Belady},
			Order: naiveOrder,
		})
		stats, err := Open(g).SimulateSweep(context.Background(), jobs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for si, s := range sizes {
			lb := MatMulLower(n, s)
			blockedTraffic[si] = float64(stats[si].VerticalTotal())
			blockedRatio = float64(stats[si].VerticalTotal()) / lb.Value
			if si == 0 {
				naiveRatio = float64(stats[len(sizes)].VerticalTotal()) / lb.Value
			}
		}
	}
	scaling := math.Log(blockedTraffic[1]/blockedTraffic[0]) / math.Log(float64(sizes[1])/float64(sizes[0]))
	b.ReportMetric(naiveRatio, "naive/LB-ratio-S32")
	b.ReportMetric(blockedRatio, "blocked/LB-ratio-S128")
	b.ReportMetric(scaling, "blocked-traffic-vs-S-exponent(theory:-0.5)")
}

// BenchmarkParallelBoundScaling exercises Theorems 5–7: as the same CDAG and
// block partition are spread over more nodes, the busiest node's vertical
// traffic shrinks roughly like 1/N_nodes while the per-node horizontal
// traffic stays bounded by the ghost-cell volume.
func BenchmarkParallelBoundScaling(b *testing.B) {
	jr := Jacobi(1, 128, 8, StencilStar)
	g := jr.Graph
	order := TopologicalSchedule(g)
	var vert1, vert4, horiz4 float64
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{1, 4} {
			owner := BlockPartitionGrid(jr, nodes)
			stats, err := Open(g).Simulate(context.Background(), memsim.Config{Nodes: nodes, FastWords: 48, Policy: memsim.Belady}, order, owner)
			if err != nil {
				b.Fatal(err)
			}
			if nodes == 1 {
				vert1 = float64(stats.MaxNodeVertical())
			} else {
				vert4 = float64(stats.MaxNodeVertical())
				horiz4 = float64(stats.MaxNodeHorizontal())
			}
		}
	}
	b.ReportMetric(vert1/vert4, "vertical-speedup-4nodes")
	b.ReportMetric(horiz4, "ghost-words-per-node")
}

// BenchmarkWorkspaceReuse measures the payoff of the Workspace handle: the
// same analysis repeated on one reused handle ("reused") versus a fresh
// single-use handle per call ("cold"), which re-derives all per-graph state
// every time.  The reused handle amortizes
// the memoized topological schedule, the degree-ranked candidate sample and
// the pooled cut-solver networks, so it must be strictly cheaper in both
// ns/op and allocs/op; the pair of sub-benchmarks records that margin in the
// BENCH_<n>.json trajectory.
func BenchmarkWorkspaceReuse(b *testing.B) {
	g := CG(2, 6, 2).Graph
	g.Materialize()
	opts := AnalyzeOptions{FastMemory: 64, Concurrency: 1}
	ctx := context.Background()
	b.Run("reused", func(b *testing.B) {
		ws := Open(g)
		// Warm the handle once so the steady state — the serving loop the
		// handle exists for — is what gets measured.
		if _, err := ws.Analyze(ctx, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Analyze(ctx, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Open(g).Analyze(ctx, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

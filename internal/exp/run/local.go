package run

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
	"cdagio/internal/core"
	"cdagio/internal/exp/spec"
	"cdagio/internal/gen"
	"cdagio/internal/linalg"
	"cdagio/internal/machine"
	"cdagio/internal/memsim"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
	"cdagio/internal/serve"
	"cdagio/internal/solvers"
)

// built is a materialized workload: the catalog's graph with its typed
// generator result, and the workspace its cells run on.
type built struct {
	gen.Built
	ws *core.Workspace
}

// localCell evaluates the cell kinds that are not expressible as one daemon
// engine request.  Each returns a deterministic JSON body (struct marshaling
// or sorted map keys only).
func localCell(ctx context.Context, ir *spec.IR, c *spec.Cell, b *built) ([]byte, error) {
	switch c.Kind {
	case "table1":
		return table1Cell(ir)
	case "balance":
		return balanceCell(ir, c)
	case "solver":
		return solverCell(c)
	case "graphstat":
		return graphstatCell(c, b)
	case "prbw":
		return prbwBlockGridCell(ctx, c, b)
	case "sweep":
		return sweepCell(ctx, c, b)
	}
	return nil, fmt.Errorf("no local evaluator for kind %q", c.Kind)
}

func table1Cell(ir *spec.IR) ([]byte, error) {
	type row struct {
		Machine    string  `json:"machine"`
		Vertical   float64 `json:"vertical"`
		Horizontal float64 `json:"horizontal"`
	}
	var rows []row
	for _, m := range ir.Machines {
		vb, err := m.VerticalBalance()
		if err != nil {
			return nil, err
		}
		hb, err := m.HorizontalBalance()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{Machine: m.Name, Vertical: vb, Horizontal: hb})
	}
	return json.Marshal(map[string]any{"rows": rows})
}

func balanceCell(ir *spec.IR, c *spec.Cell) ([]byte, error) {
	p := c.Params
	switch p.Family {
	case "cg":
		ref, err := machine.Lookup(p.Machine)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateCG(bounds.CGParams{
			Dim: p.Dim, N: p.N, Iterations: p.Iterations,
			Processors: ref.TotalCores(), Nodes: ref.Nodes,
		}, ir.Machines)
		if err != nil {
			return nil, err
		}
		bound := 0
		for _, r := range ev.VerticalRows {
			if r.Verdict.String() == "bandwidth bound" {
				bound++
			}
		}
		return json.Marshal(struct {
			VerticalPerFlop   float64 `json:"vertical_per_flop"`
			HorizontalPerFlop float64 `json:"horizontal_per_flop"`
			VerticallyBound   int     `json:"vertically_bound_machines"`
		}{ev.VerticalPerFlop, ev.HorizPerFlop, bound})

	case "gmres":
		ref, err := machine.Lookup(p.Machine)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateGMRES(p.Dim, p.N, ref.TotalCores(), ref.Nodes, p.MSweep, ir.Machines)
		if err != nil {
			return nil, err
		}
		beta, err := ref.VerticalBalance()
		if err != nil {
			return nil, err
		}
		// The restart where GMRES stops being vertically bandwidth bound on
		// the reference machine: 6/(m+20) <= beta.
		crossover := int(math.Ceil(6/beta - 20))
		return json.Marshal(struct {
			MSweep            []int     `json:"m_sweep"`
			VerticalPerFlop   []float64 `json:"vertical_per_flop"`
			HorizontalPerFlop []float64 `json:"horizontal_per_flop"`
			CrossoverM        int       `json:"crossover_m"`
		}{ev.MSweep, ev.VerticalPerFlop, ev.HorizPerFlop, crossover})

	case "jacobi":
		ref, err := machine.Lookup(p.Machine)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateJacobi(ref, p.MaxDim)
		if err != nil {
			return nil, err
		}
		perDim := map[string]float64{}
		verdicts := map[string]string{}
		for d := 1; d <= p.MaxDim; d++ {
			if v, ok := ev.PerFlopByDim[d]; ok {
				key := strconv.Itoa(d)
				perDim[key] = v
				verdicts[key] = ev.VerdictByDim[d].String()
			}
		}
		return json.Marshal(struct {
			CacheWords    int64              `json:"cache_words"`
			Balance       float64            `json:"balance"`
			PerFlopByDim  map[string]float64 `json:"per_flop_by_dim"`
			VerdictByDim  map[string]string  `json:"verdict_by_dim"`
			ThresholdDim  float64            `json:"threshold_dim"`
			PaperLimitDim float64            `json:"paper_limit_dim"`
		}{ev.CacheWords, ev.Balance, perDim, verdicts, ev.ThresholdDim, ev.PaperLimitDim})

	case "composite":
		ev, err := core.EvaluateComposite(p.N)
		if err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			StrategyIO       int     `json:"strategy_io"`
			MatMulAloneLower float64 `json:"matmul_alone_lower"`
			NaivePerStepSum  float64 `json:"naive_per_step_sum"`
			FastMemory       int     `json:"fast_memory"`
		}{ev.StrategyIO, ev.MatMulAloneLower, ev.PerStepSum, ev.FastMemory})
	}
	return nil, fmt.Errorf("no evaluator for balance family %q", p.Family)
}

// solverCell runs the numerical solver recipes of Section 5 and reports
// iteration counts, flop counts and residuals.
func solverCell(c *spec.Cell) ([]byte, error) {
	p := c.Params
	var st solvers.Stats
	var err error
	switch p.Family {
	case "heat":
		u0 := linalg.NewVector(p.N)
		for i := range u0 {
			u0[i] = math.Sin(math.Pi * float64(i+1) / float64(p.N+1))
		}
		_, st, err = solvers.HeatEquation1D(u0, p.Alpha, p.Steps)
	case "cg":
		grid := linalg.NewGrid(p.Dim, p.N)
		a := grid.Laplacian()
		f := linalg.NewVector(grid.Points())
		for i := range f {
			f[i] = math.Sin(float64(i + 1))
		}
		_, st, err = solvers.CG(solvers.CSROperator{M: a}, f, solvers.CGOptions{Tolerance: p.Tolerance})
	case "gmres":
		builder := linalg.NewCSRBuilder(p.N, p.N)
		for i := 0; i < p.N; i++ {
			builder.Add(i, i, 4)
			if i+1 < p.N {
				builder.Add(i, i+1, -1.6)
				builder.Add(i+1, i, -0.4)
			}
		}
		a := builder.Build()
		rhs := linalg.NewVector(p.N).Fill(1)
		_, st, err = solvers.GMRES(solvers.CSROperator{M: a}, rhs,
			solvers.GMRESOptions{Tolerance: p.Tolerance, Restart: p.Restart})
	default:
		return nil, fmt.Errorf("no evaluator for solver family %q", p.Family)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Iterations int     `json:"iterations"`
		Flops      int64   `json:"flops"`
		Residual   float64 `json:"residual"`
		Converged  bool    `json:"converged"`
	}{st.Iterations, st.Flops, st.Residual, st.Converged})
}

func graphstatCell(c *spec.Cell, b *built) ([]byte, error) {
	out := map[string]any{
		"vertices":       b.Graph.NumVertices(),
		"edges":          b.Graph.NumEdges(),
		"inputs":         b.Graph.NumInputs(),
		"outputs":        b.Graph.NumOutputs(),
		"num_operations": b.Graph.NumOperations(),
	}
	if c.Params.CriticalPath {
		out["critical_path"] = b.Graph.CriticalPathLength()
	}
	var iters []*cdag.VertexSet
	switch {
	case b.CG != nil:
		iters = b.CG.IterationVertices
	case b.GMRES != nil:
		iters = b.GMRES.IterationVertices
	}
	if len(iters) > 0 {
		sizes := make([]int, len(iters))
		for i, s := range iters {
			sizes[i] = s.Len()
		}
		out["iteration_vertices"] = sizes
	}
	return json.Marshal(out)
}

// prbwBlockGridCell reproduces the Figure 1 measurement: a block-partitioned
// Jacobi grid over a distributed register/cache/memory topology under the
// owner-computes P-RBW game.
func prbwBlockGridCell(ctx context.Context, c *spec.Cell, b *built) ([]byte, error) {
	p := c.Params
	topo := prbw.Distributed(p.Nodes, p.ProcsPerNode, p.RegWords, p.CacheWords, p.MemWords)
	owner := sched.BlockPartitionGrid(b.Jacobi, p.Nodes)
	procOwner := make([]int, len(owner))
	for v := range owner {
		procOwner[v] = owner[v]*p.ProcsPerNode + v%p.ProcsPerNode
	}
	asg := prbw.OwnerCompute(b.Graph, procOwner)
	st, err := b.ws.PlayParallel(ctx, topo, asg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		CacheMemWords  int64 `json:"cache_mem_words"`
		RemoteGetWords int64 `json:"remote_get_words"`
		Computes       int64 `json:"computes"`
	}{st.VerticalTraffic(2), st.HorizontalTraffic(), st.TotalComputes()})
}

// sweepCell runs a memory-hierarchy simulation with a non-trivial schedule
// or ownership map — the configurations a single daemon simulate request
// cannot express.  The result shape matches serve's simulate response so the
// emitters treat both paths uniformly.
func sweepCell(ctx context.Context, c *spec.Cell, b *built) ([]byte, error) {
	p := c.Params
	var order []cdag.VertexID
	switch p.Schedule {
	case "topo":
		order = sched.Topological(b.Graph)
	case "skewed":
		// Tile edge from the fast-memory budget: two time layers of a tile
		// must fit (Section 5.4's skewed tiling).
		tile := int(math.Sqrt(float64(p.S) / 2))
		if tile < 2 {
			tile = 2
		}
		order = sched.StencilSkewed(b.Jacobi, tile)
	case "blocked":
		// Three operand blocks per tile step.
		block := int(math.Sqrt(float64(p.S) / 3))
		if block < 2 {
			block = 2
		}
		order = sched.MatMulBlocked(b.MatMul, block)
	default:
		return nil, fmt.Errorf("no local schedule %q", p.Schedule)
	}
	var owner []int
	if p.Owner == "blockgrid" {
		owner = sched.BlockPartitionGrid(b.Jacobi, p.Nodes)
	}
	policy := memsim.Belady
	if p.Policy == "lru" {
		policy = memsim.LRU
	}
	st, err := b.ws.Simulate(ctx, memsim.Config{Nodes: p.Nodes, FastWords: p.S, Policy: policy}, order, owner)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SimStatsJSON(st))
}

package core

import (
	"fmt"
	"strings"

	"cdagio/internal/balance"
	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/machine"
	"cdagio/internal/pebble"
)

// EvaluationRow pairs the paper's reported quantity with the value this
// library computes for it, for the EXPERIMENTS.md style comparisons.
type EvaluationRow struct {
	Experiment string
	Quantity   string
	Paper      float64
	Measured   float64
}

// CGEvaluation reproduces the Section 5.2.3 analysis: the vertical
// bound-per-FLOP (0.3 for d = 3), the horizontal upper bound per FLOP, and
// the bandwidth-bound verdicts against the given machines.
type CGEvaluation struct {
	Params          bounds.CGParams
	VerticalPerFlop float64
	HorizPerFlop    float64
	VerticalRows    []balance.Row
	HorizontalRows  []balance.Row
}

// EvaluateCG runs the CG balance analysis of Section 5.2.3.
func EvaluateCG(p bounds.CGParams, machines []machine.Machine) (*CGEvaluation, error) {
	ev := &CGEvaluation{
		Params:          p,
		VerticalPerFlop: bounds.CGVerticalPerFlop(p),
		HorizPerFlop:    bounds.CGHorizontalPerFlop(p),
	}
	var err error
	ev.VerticalRows, err = balance.EvaluateVertical("CG", ev.VerticalPerFlop, -1, machines)
	if err != nil {
		return nil, err
	}
	ev.HorizontalRows, err = balance.EvaluateHorizontal("CG", 0, ev.HorizPerFlop, machines)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// Report renders the CG evaluation.
func (ev *CGEvaluation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CG balance analysis (Section 5.2.3): d=%d, n=%d, T=%d, P=%d, nodes=%d\n",
		ev.Params.Dim, ev.Params.N, ev.Params.Iterations, ev.Params.Processors, ev.Params.Nodes)
	fmt.Fprintf(&b, "  LB_vert x N_nodes / |V| = %.4g (paper: 0.3 for d=3)\n", ev.VerticalPerFlop)
	fmt.Fprintf(&b, "  UB_horiz x N_nodes / |V| = %.4g\n", ev.HorizPerFlop)
	b.WriteString(balance.FormatTable(append(append([]balance.Row{}, ev.VerticalRows...), ev.HorizontalRows...)))
	return b.String()
}

// GMRESEvaluation reproduces the Section 5.3.3 analysis for a sweep of
// restart values m.
type GMRESEvaluation struct {
	Dim, N     int
	Processors int
	Nodes      int
	MSweep     []int
	// VerticalPerFlop[i] is 6/(m+20) for MSweep[i]; HorizPerFlop likewise.
	VerticalPerFlop []float64
	HorizPerFlop    []float64
	Rows            []balance.Row
}

// EvaluateGMRES runs the GMRES balance analysis over the restart sweep.
func EvaluateGMRES(dim, n, processors, nodes int, mSweep []int, machines []machine.Machine) (*GMRESEvaluation, error) {
	ev := &GMRESEvaluation{Dim: dim, N: n, Processors: processors, Nodes: nodes, MSweep: mSweep}
	for _, m := range mSweep {
		p := bounds.GMRESParams{Dim: dim, N: n, Iterations: m, Processors: processors, Nodes: nodes}
		v := bounds.GMRESVerticalPerFlop(p)
		h := bounds.GMRESHorizontalPerFlop(p)
		ev.VerticalPerFlop = append(ev.VerticalPerFlop, v)
		ev.HorizPerFlop = append(ev.HorizPerFlop, h)
		rows, err := balance.EvaluateVertical(fmt.Sprintf("GMRES m=%d", m), v, -1, machines)
		if err != nil {
			return nil, err
		}
		ev.Rows = append(ev.Rows, rows...)
		hrows, err := balance.EvaluateHorizontal(fmt.Sprintf("GMRES m=%d", m), 0, h, machines)
		if err != nil {
			return nil, err
		}
		ev.Rows = append(ev.Rows, hrows...)
	}
	return ev, nil
}

// Report renders the GMRES evaluation.
func (ev *GMRESEvaluation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GMRES balance analysis (Section 5.3.3): d=%d, n=%d\n", ev.Dim, ev.N)
	for i, m := range ev.MSweep {
		fmt.Fprintf(&b, "  m=%-5d LB_vert/FLOP = %.4g (paper: 6/(m+20) = %.4g)   UB_horiz/FLOP = %.4g\n",
			m, ev.VerticalPerFlop[i], 6.0/(float64(m)+20), ev.HorizPerFlop[i])
	}
	b.WriteString(balance.FormatTable(ev.Rows))
	return b.String()
}

// JacobiEvaluation reproduces the Section 5.4.3 analysis: the balance
// criterion per dimension and the threshold dimension for a machine level.
type JacobiEvaluation struct {
	Machine       machine.Machine
	CacheWords    int64
	Balance       float64
	PerFlopByDim  map[int]float64
	VerdictByDim  map[int]balance.Verdict
	ThresholdDim  float64
	PaperLimitDim float64 // the paper's reported 4.83 for BG/Q
}

// EvaluateJacobi runs the Jacobi balance analysis for dimensions 1..maxDim on
// the machine's main-memory/cache boundary.
func EvaluateJacobi(m machine.Machine, maxDim int) (*JacobiEvaluation, error) {
	beta, err := m.VerticalBalance()
	if err != nil {
		return nil, err
	}
	s := m.CacheCapacityWords()
	ev := &JacobiEvaluation{
		Machine:       m,
		CacheWords:    s,
		Balance:       beta,
		PerFlopByDim:  map[int]float64{},
		VerdictByDim:  map[int]balance.Verdict{},
		ThresholdDim:  bounds.JacobiMaxUnboundDimension(beta, s),
		PaperLimitDim: 4.83,
	}
	for d := 1; d <= maxDim; d++ {
		perFlop := bounds.JacobiVerticalPerFlop(d, s)
		ev.PerFlopByDim[d] = perFlop
		// Theorem 10 is tight (the skewed-tiled schedule matches it), so the
		// same value serves as the upper bound per FLOP.
		ev.VerdictByDim[d] = balance.Check(perFlop, perFlop, beta)
	}
	return ev, nil
}

// Report renders the Jacobi evaluation.
func (ev *JacobiEvaluation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Jacobi balance analysis (Section 5.4.3) on %s: S = %d words, balance = %.4g\n",
		ev.Machine.Name, ev.CacheWords, ev.Balance)
	for d := 1; d <= len(ev.PerFlopByDim); d++ {
		if v, ok := ev.PerFlopByDim[d]; ok {
			fmt.Fprintf(&b, "  d=%d: traffic/FLOP = 1/(4(2S)^(1/d)) = %.4g -> %s\n", d, v, ev.VerdictByDim[d])
		}
	}
	fmt.Fprintf(&b, "  threshold dimension (this library): %.2f; paper reports %.2f\n",
		ev.ThresholdDim, ev.PaperLimitDim)
	return b.String()
}

// CompositeEvaluation reproduces the Section 3 composite example: the
// recomputation strategy's 4n+1 I/O versus the naive sum of per-step bounds.
type CompositeEvaluation struct {
	N int
	// StrategyIO is the I/O of the explicit Hong-Kung game played by
	// PlayCompositeStrategy (4n+1).
	StrategyIO int
	// MatMulAloneLower is the lower bound of the embedded matrix
	// multiplication analyzed in isolation with the same fast memory.
	MatMulAloneLower float64
	// PerStepSum is the sum of the individual steps' compulsory I/O costs
	// (what naive composition would predict).
	PerStepSum float64
	FastMemory int
}

// EvaluateComposite plays the Section-3 strategy and gathers the comparison.
// It returns an error for n < 1, which has no composite CDAG.
func EvaluateComposite(n int) (*CompositeEvaluation, error) {
	res, s, err := PlayCompositeStrategy(n)
	if err != nil {
		return nil, err
	}
	matmul := bounds.MatMulLower(n, s)
	perStep := 2*bounds.OuterProductIO(n).Value + // A and B rank-1 products
		matmul.Value + // C = A·B
		float64(n*n+1) // final sum reads n² values, writes 1
	return &CompositeEvaluation{
		N:                n,
		StrategyIO:       res.IO(),
		MatMulAloneLower: matmul.Value,
		PerStepSum:       perStep,
		FastMemory:       s,
	}, nil
}

// Report renders the composite evaluation.
func (ev *CompositeEvaluation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Composite example (Section 3), n = %d, S = %d:\n", ev.N, ev.FastMemory)
	fmt.Fprintf(&b, "  recomputation strategy I/O: %d (paper: 4n+1 = %d)\n", ev.StrategyIO, 4*ev.N+1)
	fmt.Fprintf(&b, "  matmul step analyzed alone: >= %.4g\n", ev.MatMulAloneLower)
	fmt.Fprintf(&b, "  naive per-step composition: %.4g\n", ev.PerStepSum)
	return b.String()
}

// PlayCompositeStrategy plays, move by move, the Section-3 strategy on the
// composite CDAG under the Hong–Kung game: load the four input vectors once
// (4n loads), recompute the rank-1 products A[i][k] and B[k][j] on the fly
// for every element of C, accumulate the global sum in a register, and store
// the single output (1 store).  It returns the completed game's result and
// the number of red pebbles used (4n + 6).
func PlayCompositeStrategy(n int) (pebble.Result, int, error) {
	if n < 1 {
		return pebble.Result{}, 0, fmt.Errorf("core: the composite example needs n >= 1, got %d", n)
	}
	comp := gen.Composite(n)
	g := comp.Graph
	s := 4*n + 6
	game := pebble.NewGame(g, pebble.HongKung, s, false)

	apply := func(kind pebble.MoveKind, v cdag.VertexID) error {
		return game.Apply(pebble.Move{Kind: kind, V: v})
	}
	// Load the four input vectors (4n loads).
	for i := 0; i < n; i++ {
		for _, v := range []cdag.VertexID{comp.P[i], comp.Q[i], comp.R[i], comp.S[i]} {
			if err := apply(pebble.Load, v); err != nil {
				return pebble.Result{}, s, err
			}
		}
	}
	var sumAcc cdag.VertexID = cdag.InvalidVertex
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc cdag.VertexID = cdag.InvalidVertex
			for k := 0; k < n; k++ {
				// Recompute A[i][k] and B[k][j] from the resident vectors.
				steps := []cdag.VertexID{comp.A[i][k], comp.B[k][j], comp.Mul[i][j][k]}
				for _, v := range steps {
					if err := apply(pebble.Compute, v); err != nil {
						return pebble.Result{}, s, err
					}
				}
				// The rank-1 values are no longer needed once multiplied.
				if err := apply(pebble.Delete, comp.A[i][k]); err != nil {
					return pebble.Result{}, s, err
				}
				if err := apply(pebble.Delete, comp.B[k][j]); err != nil {
					return pebble.Result{}, s, err
				}
				m := comp.Mul[i][j][k]
				if acc == cdag.InvalidVertex {
					acc = m
					continue
				}
				add := comp.AddC[i][j][k]
				if err := apply(pebble.Compute, add); err != nil {
					return pebble.Result{}, s, err
				}
				if err := apply(pebble.Delete, acc); err != nil {
					return pebble.Result{}, s, err
				}
				if err := apply(pebble.Delete, m); err != nil {
					return pebble.Result{}, s, err
				}
				acc = add
			}
			// Fold C[i][j] into the running sum.
			if sumAcc == cdag.InvalidVertex {
				sumAcc = acc
				continue
			}
			add := comp.AddS[i][j]
			if err := apply(pebble.Compute, add); err != nil {
				return pebble.Result{}, s, err
			}
			if err := apply(pebble.Delete, sumAcc); err != nil {
				return pebble.Result{}, s, err
			}
			if err := apply(pebble.Delete, acc); err != nil {
				return pebble.Result{}, s, err
			}
			sumAcc = add
		}
	}
	if err := apply(pebble.Store, sumAcc); err != nil {
		return pebble.Result{}, s, err
	}
	if !game.IsComplete() {
		return pebble.Result{}, s, fmt.Errorf("core: composite strategy left the game incomplete: %s", game.Incomplete())
	}
	return pebble.Result{
		Variant: pebble.HongKung,
		S:       s,
		Loads:   game.Loads(),
		Stores:  game.Stores(),
	}, s, nil
}

// Table1Report renders the paper's Table 1 from the machine catalog.
func Table1Report() string {
	return balance.Table1(machine.Table1())
}

package bounds

import (
	"fmt"
	"math"
)

// powInt returns base^exp for small integer exponents.  Negative exponents
// yield the reciprocal power (previously they silently returned 1, corrupting
// any bound evaluated with an inverted parameterization).
func powInt(base float64, exp int) float64 {
	if exp < 0 {
		return 1 / powInt(base, -exp)
	}
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// --- Conjugate Gradient (Section 5.2, Theorem 8) ----------------------------

// CGParams describes a CG workload on a d-dimensional grid with n points per
// dimension, run for T outer iterations on P processors distributed over
// Nodes nodes.
type CGParams struct {
	Dim        int
	N          int
	Iterations int
	Processors int
	Nodes      int
}

// Points returns n^d.
func (p CGParams) Points() float64 { return powInt(float64(p.N), p.Dim) }

// Flops returns the paper's operation count for CG on a 3-D grid, 20·n^d·T,
// generalized to d dimensions as (4d+8)·n^d·T (SpMV 2(2d+1)−1 ≈ 4d+1 plus
// three dot products ≈ 6 and three AXPYs ≈ 6 per point per iteration; for
// d = 3 this is the paper's 20·n³·T).
func (p CGParams) Flops() float64 {
	return float64(4*p.Dim+8) * p.Points() * float64(p.Iterations)
}

// CGVerticalLower returns the min-cut lower bound of Theorem 8 on the data
// movement of CG per processor: exactly T·2·(3n^d − 2S) in words, which tends
// to 6·n^d·T as n ≫ S, divided by P for the parallel case (Theorem 5).
func CGVerticalLower(p CGParams, s int64) Bound {
	perIteration := 2 * (3*p.Points() - 2*float64(s))
	if perIteration < 0 {
		perIteration = 0
	}
	total := perIteration * float64(p.Iterations)
	procs := float64(p.Processors)
	if procs < 1 {
		procs = 1
	}
	return Bound{
		Value:       total / procs,
		Kind:        Lower,
		Technique:   "CG min-cut wavefront (Theorem 8)",
		Assumptions: fmt.Sprintf("d=%d, n=%d, T=%d, S=%d", p.Dim, p.N, p.Iterations, s),
	}
}

// CGVerticalLowerAsymptotic returns the asymptotic form 6·n^d·T / P used in
// the Section 5.2.3 balance analysis.
func CGVerticalLowerAsymptotic(p CGParams) Bound {
	procs := float64(p.Processors)
	if procs < 1 {
		procs = 1
	}
	return Bound{
		Value:       6 * p.Points() * float64(p.Iterations) / procs,
		Kind:        Lower,
		Technique:   "CG min-cut wavefront (Theorem 8)",
		Assumptions: "asymptotic, n >> S",
	}
}

// CGHorizontalUpper returns the ghost-cell communication upper bound of
// Section 5.2.2: ((B+2)^d − B^d)·T words per node, with block size
// B = n / Nodes^{1/d}.
func CGHorizontalUpper(p CGParams) Bound {
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	b := float64(p.N) / math.Pow(nodes, 1/float64(p.Dim))
	v := (powInt(b+2, p.Dim) - powInt(b, p.Dim)) * float64(p.Iterations)
	return Bound{
		Value:       v,
		Kind:        Upper,
		Technique:   "CG block-partition ghost cells (Section 5.2.2)",
		Assumptions: fmt.Sprintf("block size B=%.4g", b),
	}
}

// CGVerticalPerFlop returns the left-hand side of Equation (9) for CG:
// LB_vert · N_nodes / |V|, which Section 5.2.3 evaluates to 6/20 = 0.3 for
// d = 3.
func CGVerticalPerFlop(p CGParams) float64 {
	lb := CGVerticalLowerAsymptotic(p)
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	// LB is per processor; per node it is LB · (P/Nodes), so
	// LB_vert,node · Nodes / |V| = LB · P / |V|.
	return lb.Value * float64(p.Processors) / p.Flops()
}

// CGHorizontalPerFlop returns the left-hand side of Equation (10) for CG:
// UB_horiz · N_nodes / |V| = 6·Nodes^{1/d} / ((4d+8)·n) asymptotically, the
// quantity Section 5.2.3 compares against the horizontal machine balance.
func CGHorizontalPerFlop(p CGParams) float64 {
	ub := CGHorizontalUpper(p)
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	return ub.Value * nodes / p.Flops()
}

// --- GMRES (Section 5.3, Theorem 9) -----------------------------------------

// GMRESParams describes a GMRES workload: m outer (Krylov) iterations on a
// d-dimensional grid of n^d points, on P processors over Nodes nodes.
type GMRESParams struct {
	Dim        int
	N          int
	Iterations int // m
	Processors int
	Nodes      int
}

// Points returns n^d.
func (p GMRESParams) Points() float64 { return powInt(float64(p.N), p.Dim) }

// Flops returns the paper's operation count 20·n^d·m + n^d·m² (Section 5.3.3),
// with the 20 generalized to 4d+8 for d ≠ 3.
func (p GMRESParams) Flops() float64 {
	m := float64(p.Iterations)
	return float64(4*p.Dim+8)*p.Points()*m + p.Points()*m*m
}

// GMRESVerticalLower returns the Theorem 9 lower bound m·2·(3n^d − S) / P,
// tending to 6·n^d·m / P for n ≫ S.  (The paper states 2·(3n^d − S) per
// iteration although its two Lemma-2 terms sum to 2·(3n^d − 2S); the two
// forms coincide asymptotically and we keep the published constant here —
// core.GMRESMinCutBound computes the per-iteration sum executably.)
func GMRESVerticalLower(p GMRESParams, s int64) Bound {
	perIteration := 2 * (3*p.Points() - float64(s))
	if perIteration < 0 {
		perIteration = 0
	}
	procs := float64(p.Processors)
	if procs < 1 {
		procs = 1
	}
	return Bound{
		Value:       perIteration * float64(p.Iterations) / procs,
		Kind:        Lower,
		Technique:   "GMRES min-cut wavefront (Theorem 9)",
		Assumptions: fmt.Sprintf("d=%d, n=%d, m=%d, S=%d", p.Dim, p.N, p.Iterations, s),
	}
}

// GMRESVerticalLowerAsymptotic returns 6·n^d·m / P.
func GMRESVerticalLowerAsymptotic(p GMRESParams) Bound {
	procs := float64(p.Processors)
	if procs < 1 {
		procs = 1
	}
	return Bound{
		Value:       6 * p.Points() * float64(p.Iterations) / procs,
		Kind:        Lower,
		Technique:   "GMRES min-cut wavefront (Theorem 9)",
		Assumptions: "asymptotic, n >> S",
	}
}

// GMRESHorizontalUpper returns the ghost-cell upper bound O(2d·B^{d−1}·m),
// analogous to CG's (Section 5.3.2).
func GMRESHorizontalUpper(p GMRESParams) Bound {
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	b := float64(p.N) / math.Pow(nodes, 1/float64(p.Dim))
	v := (powInt(b+2, p.Dim) - powInt(b, p.Dim)) * float64(p.Iterations)
	return Bound{
		Value:       v,
		Kind:        Upper,
		Technique:   "GMRES block-partition ghost cells (Section 5.3.2)",
		Assumptions: fmt.Sprintf("block size B=%.4g", b),
	}
}

// GMRESVerticalPerFlop returns LB_vert·Nodes/|V| = 6/(m+20) for d = 3
// (Section 5.3.3), computed from the general formulas.
func GMRESVerticalPerFlop(p GMRESParams) float64 {
	lb := GMRESVerticalLowerAsymptotic(p)
	return lb.Value * float64(p.Processors) / p.Flops()
}

// GMRESHorizontalPerFlop returns UB_horiz·Nodes/|V| ≈ 6·Nodes^{1/d}/(n·m) for
// d = 3 (Section 5.3.3).
func GMRESHorizontalPerFlop(p GMRESParams) float64 {
	ub := GMRESHorizontalUpper(p)
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	return ub.Value * nodes / p.Flops()
}

// --- Jacobi stencils (Section 5.4, Theorem 10) ------------------------------

// JacobiParams describes a d-dimensional Jacobi stencil sweep: an n^d grid
// advanced for T time steps on P processors over Nodes nodes.
type JacobiParams struct {
	Dim        int
	N          int
	Steps      int
	Processors int
	Nodes      int
}

// Points returns n^d.
func (p JacobiParams) Points() float64 { return powInt(float64(p.N), p.Dim) }

// JacobiLower returns the Theorem 10 lower bound n^d·T / (4·P·(2S)^{1/d}).
func JacobiLower(p JacobiParams, s int64) Bound {
	procs := float64(p.Processors)
	if procs < 1 {
		procs = 1
	}
	denom := 4 * procs * math.Pow(2*float64(s), 1/float64(p.Dim))
	return Bound{
		Value:       p.Points() * float64(p.Steps) / denom,
		Kind:        Lower,
		Technique:   "Jacobi disjoint-path lines (Theorem 10)",
		Assumptions: fmt.Sprintf("d=%d, n=%d, T=%d, S=%d", p.Dim, p.N, p.Steps, s),
	}
}

// JacobiHorizontalUpper returns the ghost-cell communication of the block
// partition: 2d·B^{d−1}·T words per node with B = n / Nodes^{1/d}
// (the paper's 4BT for d = 2).
func JacobiHorizontalUpper(p JacobiParams) Bound {
	nodes := float64(p.Nodes)
	if nodes < 1 {
		nodes = 1
	}
	b := float64(p.N) / math.Pow(nodes, 1/float64(p.Dim))
	return Bound{
		Value:       float64(2*p.Dim) * powInt(b, p.Dim-1) * float64(p.Steps),
		Kind:        Upper,
		Technique:   "Jacobi block-partition ghost cells (Section 5.4.2)",
		Assumptions: fmt.Sprintf("block size B=%.4g", b),
	}
}

// JacobiVerticalPerFlop returns the left-hand side of the Section 5.4.3
// balance condition: S_{l−1} / U(C, 2S_{l−1}) = 1 / (4·(2S)^{1/d}).
func JacobiVerticalPerFlop(dim int, s int64) float64 {
	return 1 / (4 * math.Pow(2*float64(s), 1/float64(dim)))
}

// JacobiMaxUnboundDimension returns the largest stencil dimensionality d for
// which the computation is NOT vertically bandwidth bound on a machine with
// balance beta and fast memory S at the level under study: the d satisfying
// 1/(4·(2S)^{1/d}) ≤ beta, i.e. d ≤ log(2S) / log2(1/(4·beta))... solving
// 4·(2S)^{1/d} ≥ 1/beta for d.  (Section 5.4.3 obtains d ≤ 4.83 for the
// IBM BG/Q main-memory/L2 boundary with S = 4 MWords.)
func JacobiMaxUnboundDimension(beta float64, s int64) float64 {
	if beta <= 0 || s <= 0 {
		return 0
	}
	threshold := 1 / (4 * beta) // need (2S)^{1/d} >= threshold
	if threshold <= 1 {
		return math.Inf(1) // any dimension satisfies the condition
	}
	return math.Log(2*float64(s)) / math.Log(threshold)
}

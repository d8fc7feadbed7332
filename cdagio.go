// Package cdagio characterizes the data-movement complexity of computational
// DAGs (CDAGs) for sequential and parallel execution, reproducing the
// framework of Elango, Rastello, Pouchet, Ramanujam and Sadayappan,
// "On Characterizing the Data Movement Complexity of Computational DAGs for
// Parallel Execution" (SPAA 2014 / Inria RR-8522).
//
// The package is a thin facade over the implementation packages under
// internal/.  Its primary entry point is the Workspace handle: Open(g)
// returns a per-graph handle that owns all derived analysis state — compiled
// CSR adjacency, pooled min-cut solvers, memoized schedules and candidate
// samples — and exposes every engine as a context-first method:
//
//	ws := cdagio.Open(g)
//	analysis, err := ws.Analyze(ctx, cdagio.AnalyzeOptions{FastMemory: 64})
//	w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{})
//
// Repeated analyses of one CDAG through one Workspace amortize all of that
// state, and cancelling the context (a deadline, a dropped request, a signal)
// stops the long-running engines promptly.  The engines cover:
//
//   - CDAG construction: generators for the kernels the paper analyzes
//     (matrix multiplication, the Section-3 composite, FFT, Jacobi stencils,
//     CG, GMRES, ...) and a Tracer that records arbitrary scalar
//     computations as CDAGs;
//   - pebble games: the sequential red-blue and red-blue-white games with
//     rule checking, schedule players and an exact optimal solver, plus the
//     parallel P-RBW game over a storage hierarchy;
//   - lower bounds: 2S-partitioning (Corollary 1), min-cut wavefronts
//     (Lemma 2, and Theorems 8 and 9 applied per iteration), and the paper's
//     closed forms for CG, GMRES, Jacobi and matmul;
//   - machine models and balance analysis: the Table-1 machines and the
//     Equation 7–10 bandwidth-bound verdicts;
//   - the unified analyzer (Workspace.Analyze) combining all of the above
//     into reports.
//
// The runnable entry points live under cmd/ (iolb, pebblesim, balance,
// cdaggen) and examples/.
package cdagio

import (
	"cdagio/internal/balance"
	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
	"cdagio/internal/core"
	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/machine"
	"cdagio/internal/memsim"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
	"cdagio/internal/trace"
)

// --- CDAG construction -------------------------------------------------------

// Graph is a computational DAG: vertices are scalar operations, edges are
// value flows, and input/output tags mark the values that must start and end
// in slow memory.
type Graph = cdag.Graph

// VertexID identifies a vertex of a Graph.
type VertexID = cdag.VertexID

// VertexSet is a set of vertices of a Graph.
type VertexSet = cdag.VertexSet

// NewGraph returns an empty CDAG.
func NewGraph(name string, hint int) *Graph { return cdag.NewGraph(name, hint) }

// NewTracer returns a Tracer that records a scalar computation as a CDAG.
func NewTracer(name string) *trace.Tracer { return trace.New(name) }

// Generators for the CDAG families analyzed in the paper.
var (
	// MatMul builds the classical n×n×n matrix-multiplication CDAG.
	MatMul = gen.MatMul
	// Composite builds the Section-3 composite example sum((p·qᵀ)(r·sᵀ)).
	Composite = gen.Composite
	// FFT builds the n-point radix-2 butterfly CDAG.
	FFT = gen.FFT
	// Jacobi builds a d-dimensional stencil sweep CDAG over T time steps.
	Jacobi = gen.Jacobi
	// CG builds the Conjugate Gradient iteration CDAG (Figure 3).
	CG = gen.CG
	// GMRES builds the GMRES iteration CDAG (Figure 4).
	GMRES = gen.GMRES
	// HeatEquation1DGraph builds the CDAG of the implicit (Thomas-algorithm)
	// heat-equation time-stepper of Section 5.1, and SpMV the CDAG of a
	// sparse matrix-vector product given the matrix's row structure.
	HeatEquation1DGraph = gen.HeatEquation1D
	SpMV                = gen.SpMV
	// OuterProduct, DotProduct, Saxpy, Chain, ReductionTree, Pyramid and
	// BinomialTree build the smaller calibration kernels.
	OuterProduct  = gen.OuterProduct
	DotProduct    = gen.DotProduct
	Saxpy         = gen.Saxpy
	Chain         = gen.Chain
	ReductionTree = gen.ReductionTree
	Pyramid       = gen.Pyramid
	BinomialTree  = gen.BinomialTree
)

// Stencil kinds accepted by Jacobi.
const (
	StencilStar = gen.StencilStar
	StencilBox  = gen.StencilBox
)

// --- Sequential pebble games -------------------------------------------------

// Game is a rule-checking sequential pebble game (red-blue or red-blue-white).
type Game = pebble.Game

// GameResult summarizes a completed sequential game.
type GameResult = pebble.Result

// Pebble-game variants and eviction policies.
const (
	HongKung = pebble.HongKung
	RBW      = pebble.RBW
	Belady   = pebble.Belady
	LRU      = pebble.LRU
)

// NewGame starts a sequential pebble game on g with S red pebbles.  The
// graph's structure must stay fixed while the game is played: NewGame
// compiles and caches its adjacency.
func NewGame(g *Graph, variant pebble.Variant, s int, record bool) *Game {
	return pebble.NewGame(g, variant, s, record)
}

// --- Parallel pebble game and simulators -------------------------------------

// Topology describes a parallel machine's storage hierarchy for the P-RBW game.
type Topology = prbw.Topology

// ParallelStats reports the data movement of a P-RBW game.
type ParallelStats = prbw.Stats

// Assignment maps a schedule onto processors.
type Assignment = prbw.Assignment

// TwoLevel, Distributed and TopologyFromMachine build P-RBW topologies.
var (
	TwoLevel            = prbw.TwoLevel
	Distributed         = prbw.Distributed
	TopologyFromMachine = prbw.FromMachine
)

// MemSimConfig describes the machine simulated by the lightweight
// distributed cache simulator (nodes, per-node fast-memory words, policy).
type MemSimConfig = memsim.Config

// MemSimStats reports the simulator's measured data movement.
type MemSimStats = memsim.Stats

// Replacement policies of the simulated fast memory.
const (
	MemSimBelady = memsim.Belady
	MemSimLRU    = memsim.LRU
)

// MemorySweepJob is one simulation of a sweep: a machine configuration, a
// schedule and an optional vertex→node assignment against a shared graph.
type MemorySweepJob = memsim.Job

// --- Schedules ----------------------------------------------------------------

// Scheduling helpers.
var (
	TopologicalSchedule = sched.Topological
	MatMulBlocked       = sched.MatMulBlocked
	StencilSkewed       = sched.StencilSkewed
	BlockPartitionGrid  = sched.BlockPartitionGrid
)

// --- Lower bounds -------------------------------------------------------------

// Bound is a data-movement bound with provenance.
type Bound = bounds.Bound

// Closed-form bounds and parameter types for the paper's algorithms.
type (
	// CGParams parameterizes the CG bounds of Theorem 8 / Section 5.2.
	CGParams = bounds.CGParams
	// GMRESParams parameterizes the GMRES bounds of Theorem 9 / Section 5.3.
	GMRESParams = bounds.GMRESParams
	// JacobiParams parameterizes the Jacobi bounds of Theorem 10 / Section 5.4.
	JacobiParams = bounds.JacobiParams
)

// Closed-form bound constructors.
var (
	MatMulLower          = bounds.MatMulLower
	FFTLower             = bounds.FFTLower
	CGVerticalLower      = bounds.CGVerticalLower
	CGHorizontalUpper    = bounds.CGHorizontalUpper
	GMRESVerticalLower   = bounds.GMRESVerticalLower
	GMRESHorizontalUpper = bounds.GMRESHorizontalUpper
	JacobiLower          = bounds.JacobiLower
	JacobiHorizontal     = bounds.JacobiHorizontalUpper
)

// WMaxOptions configures the w^max candidate search of Workspace.WMax: the
// worker-pool width (the workspace supplies its own solver pool).  The bound
// and witness are identical at every worker count.
type WMaxOptions = graphalg.WMaxOptions

// --- Machines and balance ------------------------------------------------------

// Machine describes a parallel computer and its balance parameters.
type Machine = machine.Machine

// BalanceRow is one line of a balance-analysis table.
type BalanceRow = balance.Row

// Machine catalog (Table 1) and helpers.
var (
	IBMBGQ         = machine.IBMBGQ
	CrayXT5        = machine.CrayXT5
	Table1Machines = machine.Table1
	GenericMachine = machine.Generic
	LookupMachine  = machine.Lookup
)

// --- Unified analyzer -----------------------------------------------------------

// AnalyzeOptions configures the sequential analyzer.
type AnalyzeOptions = core.Options

// Analysis is the sequential analyzer's result.
type Analysis = core.Analysis

// Evaluation results for the paper's Section 5 analyses.
type (
	// CGEvaluationResult is the Section 5.2.3 CG balance analysis.
	CGEvaluationResult = core.CGEvaluation
	// GMRESEvaluationResult is the Section 5.3.3 GMRES balance analysis.
	GMRESEvaluationResult = core.GMRESEvaluation
	// JacobiEvaluationResult is the Section 5.4.3 Jacobi balance analysis.
	JacobiEvaluationResult = core.JacobiEvaluation
	// CompositeEvaluationResult is the Section 3 composite-example study.
	CompositeEvaluationResult = core.CompositeEvaluation
)

// Evaluation entry points reproducing the paper's Section 5 analyses.
var (
	EvaluateCG        = core.EvaluateCG
	EvaluateGMRES     = core.EvaluateGMRES
	EvaluateJacobi    = core.EvaluateJacobi
	EvaluateComposite = core.EvaluateComposite
	Table1Report      = core.Table1Report
)

// Executable per-iteration forms of the Theorem 8 and Theorem 9 bounds: they
// decompose a generated CG/GMRES CDAG iteration by iteration, measure the
// min-cut wavefronts at the designated scalar vertices, and sum the Lemma 2
// contributions.
var (
	CGMinCutBound    = core.CGMinCutBound
	GMRESMinCutBound = core.GMRESMinCutBound
)

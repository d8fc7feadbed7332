package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
	"cdagio/internal/graphalg"
	"cdagio/internal/memsim"
	"cdagio/internal/partition"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
	"cdagio/internal/wavefront"
)

// Workspace is a reusable per-graph analysis handle: it owns every piece of
// derived state the engines need — the graph's compiled CSR rows, a pool of
// cut solvers carrying the strip-local min-cut scratch, the memoized
// topological schedule and candidate samples — so repeated analyses of one
// CDAG amortize all of it, and it threads a context.Context through every
// long-running engine so callers can cancel or deadline them.
//
// Obtain one with NewWorkspace (cdagio.Open at the facade), hand it the
// context of the request being served, and reuse it for every analysis of the
// same graph.  The graph's structure and its input tagging must stay fixed
// while a Workspace is bound to it — the memoized schedules are filtered on
// IsInput, so an input-tag flip would leave them stale; output-tag flips
// remain legal (nothing memoized depends on them).  All methods are safe for
// concurrent use.
//
// Every engine method is deterministic under a never-cancelled context: the
// results are bit-identical at every worker count.  Once the context is
// cancelled, engines return ctx.Err() promptly — candidate scans stop at
// pruning-tier boundaries, sweeps between jobs, the exact search between
// state settlements, the players between steps — while individual Dinic
// solves and game moves stay atomic.
type Workspace struct {
	g    *cdag.Graph
	pool *graphalg.SolverPool

	mu       sync.Mutex
	topo     []cdag.VertexID // memoized topological schedule (non-inputs)
	allVerts []cdag.VertexID // memoized full candidate list
	defCands []cdag.VertexID // memoized default degree-ranked candidate sample
}

// defaultCandidates is the size of the degree-ranked candidate sample the
// analyzer uses when Options.WavefrontCandidates is zero.
const defaultCandidates = 32

// exactPartitionLimit is the largest operation count for which the exact
// U(2S) search (and with it the Corollary 1 bound) runs.
const exactPartitionLimit = 20

// NewWorkspace returns a Workspace bound to g.  It compiles g's CSR rows up
// front, so the handle (and every solver it pools) never races on the graph's
// lazy materialization.
func NewWorkspace(g *cdag.Graph) *Workspace {
	g.Materialize()
	return &Workspace{g: g, pool: graphalg.NewSolverPool(g)}
}

// Graph returns the graph the workspace is bound to.
func (w *Workspace) Graph() *cdag.Graph { return w.g }

// SetSolverLimit caps the number of cut solvers the workspace's pool hands
// out concurrently (see graphalg.SolverPool.SetLimit): engine workers beyond
// the cap wait for a solver instead of allocating more.  This is the serving
// layer's in-flight solver cap; n <= 0 removes it.  Set it before the
// workspace serves concurrent requests.
func (w *Workspace) SetSolverLimit(n int) { w.pool.SetLimit(n) }

// FootprintBytes estimates the heap bytes the workspace pins while serving:
// the graph itself plus up to maxSolvers pooled cut solvers with their
// scratch (maxSolvers <= 0 estimates one solver; see
// graphalg.EstimateSolverFootprint).  The
// serving layer admits a Workspace into its byte-budgeted cache on this
// number, so an oversized graph is rejected before it is ever opened.
func (w *Workspace) FootprintBytes(maxSolvers int) int64 {
	if maxSolvers < 1 {
		maxSolvers = 1
	}
	return w.g.FootprintBytes() + int64(maxSolvers)*graphalg.EstimateSolverFootprint(w.g)
}

// topoSchedule returns the memoized baseline schedule (the non-input vertices
// in topological order).
func (w *Workspace) topoSchedule() []cdag.VertexID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.topo == nil {
		w.topo = sched.Topological(w.g)
	}
	return w.topo
}

// vertices returns the memoized full vertex list.
func (w *Workspace) vertices() []cdag.VertexID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.allVerts == nil {
		w.allVerts = w.g.Vertices()
	}
	return w.allVerts
}

// candidates returns the degree-ranked top-k candidate sample.  Only the
// default sample is memoized: a long-lived handle serving requests with
// caller-chosen k must not grow with the number of distinct k values seen.
func (w *Workspace) candidates(k int) []cdag.VertexID {
	if k != defaultCandidates {
		return wavefront.TopCandidates(w.g, k)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.defCands == nil {
		w.defCands = wavefront.TopCandidates(w.g, defaultCandidates)
	}
	return w.defCands
}

// WMax returns the min-cut wavefront lower bound w^max over the candidates
// (all vertices when candidates is nil) and a vertex attaining it, computed
// by the parallel pruned search on the workspace's solver pool.  Bound and
// witness are those of a serial scan solving every candidate, at every
// worker count; a cancelled context yields (0, InvalidVertex, ctx.Err()).
func (w *Workspace) WMax(ctx context.Context, candidates []cdag.VertexID, opts graphalg.WMaxOptions) (int, cdag.VertexID, error) {
	if candidates == nil {
		if err := ctx.Err(); err != nil {
			return 0, cdag.InvalidVertex, err
		}
		candidates = w.vertices()
	}
	opts.Pool = w.pool
	return graphalg.MaxMinWavefrontLowerBoundCtx(ctx, w.g, candidates, opts)
}

// WavefrontAt returns the min-cut wavefront lower bound induced by x,
// computed strip-locally on a pooled solver.  The single Dinic solve is
// atomic; a context cancelled on entry returns ctx.Err() without solving.
func (w *Workspace) WavefrontAt(ctx context.Context, x cdag.VertexID) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return w.pool.MinWavefrontAt(x), nil
}

// MinDominatorSize returns the size of a minimum dominator of the target set
// and one witness, computed strip-locally on a pooled solver (the input cone
// is contracted into the flow source).  The solve is atomic; a context
// cancelled on entry returns ctx.Err() without solving.
func (w *Workspace) MinDominatorSize(ctx context.Context, target *cdag.VertexSet) (int, []cdag.VertexID, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	k, dom := w.pool.MinDominatorSize(target)
	return k, dom, nil
}

// OptimalIO computes the exact minimum I/O of the workspace's CDAG by
// state-space search; ctx bounds the search (checked every 1024 settled
// states).
func (w *Workspace) OptimalIO(ctx context.Context, variant pebble.Variant, s int, opts pebble.OptimalOptions) (int, error) {
	return pebble.OptimalIOCtx(ctx, w.g, variant, s, opts)
}

// PlayCtx executes a vertex schedule as a complete sequential pebble game; a
// nil order selects the workspace's memoized topological schedule.  ctx
// bounds the play (checked every 4096 schedule steps).
func (w *Workspace) PlayCtx(ctx context.Context, variant pebble.Variant, s int, order []cdag.VertexID,
	policy pebble.EvictionPolicy, record bool) (pebble.Result, error) {
	if order == nil {
		order = w.topoSchedule()
	}
	return pebble.PlayScheduleCtx(ctx, w.g, variant, s, order, policy, record)
}

// PlayParallel executes an assignment as a complete P-RBW game on the given
// storage hierarchy; ctx bounds the game (checked every 4096 compute steps).
func (w *Workspace) PlayParallel(ctx context.Context, topo prbw.Topology, asg prbw.Assignment) (*prbw.Stats, error) {
	return prbw.PlayCtx(ctx, w.g, topo, asg)
}

// Simulate runs the lightweight distributed cache simulator on one
// configuration; ctx bounds the simulation (checked every 4096 schedule
// steps).  A nil order selects the workspace's memoized topological schedule.
func (w *Workspace) Simulate(ctx context.Context, cfg memsim.Config, order []cdag.VertexID, owner []int) (*memsim.Stats, error) {
	if order == nil {
		order = w.topoSchedule()
	}
	return memsim.RunCtx(ctx, w.g, cfg, order, owner)
}

// SimulateSweep runs the jobs over a bounded worker pool (workers ≤ 0 selects
// GOMAXPROCS); ctx bounds the sweep (checked before every job).  Jobs with a
// nil Order select the workspace's memoized topological schedule.  Results
// are deterministically identical to serial Simulate calls at every worker
// count.
func (w *Workspace) SimulateSweep(ctx context.Context, jobs []memsim.Job, workers int) ([]*memsim.Stats, error) {
	var filled []memsim.Job
	for i := range jobs {
		if jobs[i].Order == nil {
			if filled == nil {
				filled = append([]memsim.Job(nil), jobs...)
			}
			filled[i].Order = w.topoSchedule()
		}
	}
	if filled != nil {
		jobs = filled
	}
	return memsim.SweepCtx(ctx, w.g, jobs, workers)
}

// Analyze computes lower bounds with every applicable technique and a
// measured upper bound for the workspace's CDAG, on the workspace's memoized
// schedules, candidate samples and solver pool, under ctx: each stage —
// candidate scan, partition search, exact search, schedule playback — starts
// only while ctx is live, and the scan itself stops at pruning-tier
// boundaries once ctx is cancelled.
func (w *Workspace) Analyze(ctx context.Context, opts Options) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.FastMemory < 1 {
		return nil, fmt.Errorf("core: fast memory must be at least 1 word")
	}
	s := opts.FastMemory
	g := w.g
	a := &Analysis{Graph: g, FastMemory: s}

	// Trivial compulsory bound: every input is loaded and every output stored
	// at least once in the RBW game.
	a.LowerBounds = append(a.LowerBounds, bounds.Bound{
		Value:     float64(g.NumInputs() + g.NumOutputs()),
		Kind:      bounds.Lower,
		Technique: "compulsory |I| + |O|",
	})

	// Min-cut wavefront bound (Lemma 2).
	candidates := opts.WavefrontCandidates
	var candidateSet []cdag.VertexID
	switch {
	case candidates < 0:
		candidateSet = nil // all vertices
	case candidates == 0:
		candidateSet = w.candidates(defaultCandidates)
	default:
		candidateSet = w.candidates(candidates)
	}
	var err error
	a.WMax, a.WMaxAt, err = w.WMax(ctx, candidateSet, graphalg.WMaxOptions{Concurrency: opts.Concurrency})
	if err != nil {
		return nil, err
	}
	a.LowerBounds = append(a.LowerBounds, bounds.Bound{
		Value:       float64(wavefront.Lemma2Bound(a.WMax, s)),
		Kind:        bounds.Lower,
		Technique:   "min-cut wavefront (Lemma 2)",
		Assumptions: fmt.Sprintf("wmax >= %d at vertex %d", a.WMax, a.WMaxAt),
	})

	// 2S-partition bound (Corollary 1) via the exact U(2S) search on small
	// CDAGs.
	if g.NumOperations() <= exactPartitionLimit {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// 2S saturates at math.MaxInt: any limit at least every In/Out size
		// gives the same U, and 2S itself would wrap negative for S ≥ 2^62.
		s2 := math.MaxInt
		if s <= math.MaxInt/2 {
			s2 = 2 * s
		}
		if u, err := partition.MaxVertexSetSizeExact(g, s2, exactPartitionLimit); err == nil && u > 0 {
			a.LowerBounds = append(a.LowerBounds, bounds.Bound{
				Value:       float64(partition.Corollary1Bound(s, g.NumOperations(), u)),
				Kind:        bounds.Lower,
				Technique:   "2S-partition (Corollary 1)",
				Assumptions: fmt.Sprintf("exact U(2S) = %d", u),
			})
		}
	}

	// Exact optimal search on very small CDAGs.
	if opts.ExactOptimalLimit > 0 && g.NumVertices() <= opts.ExactOptimalLimit {
		opt, err := pebble.OptimalIOCtx(ctx, g, pebble.RBW, s, pebble.OptimalOptions{})
		switch {
		case err == nil:
			b := bounds.Bound{
				Value:     float64(opt),
				Kind:      bounds.Lower,
				Technique: "exact optimal game (Dijkstra search)",
			}
			a.ExactOptimal = &b
			a.LowerBounds = append(a.LowerBounds, b)
		case ctx.Err() != nil:
			return nil, ctx.Err()
			// Non-context errors (budget exhausted, graph too large) are
			// non-fatal: the exact bound is simply omitted, as before.
		}
	}

	// Measured upper bound.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	order := opts.Schedule
	scheduleName := "topological"
	if order == nil {
		order = w.topoSchedule()
	} else {
		scheduleName = "caller-supplied"
	}
	res, err := pebble.PlayScheduleCtx(ctx, g, pebble.RBW, s, order, pebble.Belady, false)
	if err != nil {
		return nil, fmt.Errorf("core: schedule playback failed: %w", err)
	}
	a.MeasuredIO = int64(res.IO())
	a.ScheduleUsed = scheduleName
	a.Upper = bounds.Bound{
		Value:       float64(res.IO()),
		Kind:        bounds.Upper,
		Technique:   fmt.Sprintf("RBW schedule player (%s order, Belady eviction)", scheduleName),
		Assumptions: fmt.Sprintf("S=%d", s),
	}
	return a, nil
}

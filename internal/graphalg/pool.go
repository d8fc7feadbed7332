package graphalg

import (
	"sync"

	"cdagio/internal/cdag"
)

// SolverPool is a per-graph free list of CutSolvers: every solver it hands out
// is already bound to the pool's graph, so repeated cut queries — the w^max
// candidate scans, single-vertex wavefronts, dominator queries — reuse the CSR
// hoists, the epoch-stamped traversal scratch and the grown network arrays
// instead of rebuilding them per call.  This is the solver cache a
// cdagio.Workspace owns: its owner controls its lifetime, and its solvers
// never migrate to queries against other graphs.
//
// A SolverPool is safe for concurrent use; the individual CutSolvers it hands
// out are not (use one per goroutine, returning it with Put).
type SolverPool struct {
	g    *cdag.Graph
	mu   sync.Mutex
	free []*CutSolver
	sem  chan struct{} // nil = unlimited; else one slot per outstanding solver
}

// NewSolverPool returns an empty pool bound to g.  It materializes g's CSR
// arrays up front so concurrent Get calls never race on the graph's lazy
// compilation.
func NewSolverPool(g *cdag.Graph) *SolverPool {
	g.Materialize()
	return &SolverPool{g: g}
}

// Graph returns the graph the pool's solvers are bound to.
func (p *SolverPool) Graph() *cdag.Graph { return p.g }

// SetLimit caps the number of solvers outstanding from the pool at once:
// when n solvers are out, further Get calls block until one is returned with
// Put (or dropped with Discard).  This is the serving layer's global
// in-flight solver cap — it bounds the memory and CPU a Workspace's cut
// queries can hold regardless of how many requests race on it.  n <= 0
// removes the cap.  Call before the pool is shared; changing the limit while
// solvers are outstanding loses track of them.
func (p *SolverPool) SetLimit(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		p.sem = nil
		return
	}
	p.sem = make(chan struct{}, n)
}

// Limit returns the current cap on outstanding solvers (0 = unlimited).
func (p *SolverPool) Limit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return cap(p.sem)
}

// InUse returns the number of solvers currently outstanding.  Only meaningful
// under a SetLimit cap (0 otherwise); the serving layer reports it as a
// load metric.
func (p *SolverPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sem)
}

// Get returns a solver bound to the pool's graph, reusing a previously
// returned one when available.  Under a SetLimit cap, Get blocks while the
// full complement of solvers is outstanding.
func (p *SolverPool) Get() *CutSolver {
	p.mu.Lock()
	sem := p.sem
	p.mu.Unlock()
	if sem != nil {
		sem <- struct{}{}
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		cs := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return cs
	}
	p.mu.Unlock()
	cs := NewCutSolver()
	cs.ensureGraph(p.g)
	return cs
}

// Put returns a solver obtained from Get to the pool.
func (p *SolverPool) Put(cs *CutSolver) {
	if cs == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, cs)
	sem := p.sem
	p.mu.Unlock()
	if sem != nil {
		<-sem
	}
}

// Discard releases the capacity slot of a solver obtained from Get without
// returning the solver itself: the panic-isolation path drops a solver whose
// scratch may have been poisoned mid-solve rather than let a later query
// reuse it.  The solver is garbage collected; the pool replaces it lazily.
func (p *SolverPool) Discard(cs *CutSolver) {
	if cs == nil {
		return
	}
	p.mu.Lock()
	sem := p.sem
	p.mu.Unlock()
	if sem != nil {
		<-sem
	}
}

// EstimateSolverFootprint estimates the heap bytes one CutSolver may hold once
// bound to g: the epoch-stamped per-vertex mark arrays, the strip network's
// arrays and traversal scratch.  The serving layer multiplies this by its
// solver cap to budget a Workspace's cache admission; it is a planning
// estimate, not an accounting of live allocations.  The formula was sized when
// every solver also cached a static 2V+2-node vertex-split network of g.  It
// is kept unchanged, so the serving layer admits and evicts exactly the
// workspaces it did before.  Without that network it errs high, and higher
// still since solvers stopped keeping the previous solve's flow paths: the
// safe side for a memory budget.
func EstimateSolverFootprint(g *cdag.Graph) int64 {
	return EstimateSolverFootprintCounts(int64(g.NumVertices()), int64(g.NumEdges()))
}

// EstimateSolverFootprintCounts is EstimateSolverFootprint for a graph that
// has not been built yet, from its declared vertex and edge counts.  The
// serving layer uses it to reject generator specs whose Workspace could
// never be admitted, before allocating anything.
func EstimateSolverFootprintCounts(v, e int64) int64 {
	return 60*v + 30*e + 4096
}

// MinWavefrontAt is CutSolver.MinWavefrontAt on a pooled solver.
func (p *SolverPool) MinWavefrontAt(x cdag.VertexID) int {
	cs := p.Get()
	defer p.Put(cs)
	return cs.MinWavefrontAt(p.g, x)
}

// MinDominatorSize is CutSolver.MinDominatorSize on a pooled solver.
func (p *SolverPool) MinDominatorSize(target *cdag.VertexSet) (int, []cdag.VertexID) {
	cs := p.Get()
	defer p.Put(cs)
	return cs.MinDominatorSize(p.g, target)
}

package cdagio

import "cdagio/internal/core"

// Workspace is a reusable per-graph analysis handle, the package's primary
// entry point: it owns the graph's compiled CSR rows, pooled cut solvers with
// their min-cut scratch, and the memoized schedules and candidate samples, so
// repeated analyses of one CDAG amortize all derived state.  Every long-running engine method takes a context.Context
// and returns ctx.Err() promptly once it is cancelled, which is what makes
// the engines usable behind a server: cancel the context and the candidate
// scan stops at its next pruning-tier boundary, the sweep before its next
// job, the exact search between state settlements.
//
// Open one Workspace per graph and reuse it:
//
//	ws := cdagio.Open(g)
//	analysis, err := ws.Analyze(ctx, cdagio.AnalyzeOptions{FastMemory: 64})
//	w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{})
//	stats, err := ws.SimulateSweep(ctx, jobs, 0)
//
// Under context.Background() every method is deterministic: results are
// bit-identical at every worker count.  The graph's structure and input
// tagging must stay fixed while a Workspace is bound to it (output-tag flips
// remain legal); all methods are safe for concurrent use.
type Workspace = core.Workspace

// Open returns a Workspace bound to g: the per-graph handle that owns all
// derived analysis state.  Opening compiles g's CSR adjacency; everything
// else — cut solvers, schedules, candidate samples — is derived lazily by
// the first method that needs it and reused by every later call.
func Open(g *Graph) *Workspace { return core.NewWorkspace(g) }

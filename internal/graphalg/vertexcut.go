package graphalg

import "cdagio/internal/cdag"

// CutOptions configures vertex-cut computations.
type CutOptions struct {
	// Uncuttable reports vertices that may not be chosen as cut vertices
	// (they are given infinite capacity in the flow network).  A nil function
	// means every vertex may be cut.
	Uncuttable func(cdag.VertexID) bool

	// UncuttableSet is the precomputed-set form of Uncuttable: every member
	// may not be chosen as a cut vertex.  Prefer it when the uncuttable
	// vertices are already materialized as a set (the wavefront instances
	// exclude Desc(x)): the solver reads the set's bitmap directly, so the
	// per-call capacity flips cost a branch per vertex instead of a dynamic
	// predicate call per vertex.  When both fields are set a vertex is
	// uncuttable if either reports it.
	UncuttableSet *cdag.VertexSet
}

// uncuttable reports whether v may not be chosen as a cut vertex under the
// options (the single-vertex form; bulk scans read the set bitmap directly).
func (o CutOptions) uncuttable(v cdag.VertexID) bool {
	if o.UncuttableSet != nil && o.UncuttableSet.Contains(v) {
		return true
	}
	return o.Uncuttable != nil && o.Uncuttable(v)
}

// MinVertexCut computes the minimum number of vertices whose removal
// disconnects every directed path from a source vertex to a target vertex.
// Cut vertices may coincide with sources or targets unless opts.Uncuttable
// excludes them.  By Menger's theorem the value equals the maximum number of
// fully vertex-disjoint source→target paths when all vertices are cuttable.
//
// The computation uses the standard vertex-splitting reduction to edge
// min-cut solved with Dinic's algorithm; its cost is O(E·√V) in practice for
// the unit-capacity networks that arise here.  It runs on a pooled CutSolver,
// so repeated calls against the same graph reuse the cached static network
// and traversal scratch; hold a CutSolver directly to make the reuse
// explicit.
//
// It returns the cut size and one minimum cut (the set of cut vertices).
// If a target is reachable from a source using only uncuttable vertices the
// cut is impossible; the function then returns (-1, nil).
func MinVertexCut(g *cdag.Graph, sources, targets []cdag.VertexID, opts CutOptions) (int, []cdag.VertexID) {
	cs := acquireSolver()
	defer releaseSolver(cs)
	return cs.MinVertexCut(g, sources, targets, opts)
}

// MaxVertexDisjointPaths returns the maximum number of fully vertex-disjoint
// directed paths from the source set to the target set (paths may not share
// any vertex, endpoints included).  By Menger's theorem this equals
// MinVertexCut with all vertices cuttable.
func MaxVertexDisjointPaths(g *cdag.Graph, sources, targets []cdag.VertexID) int {
	cs := acquireSolver()
	defer releaseSolver(cs)
	return cs.MaxVertexDisjointPaths(g, sources, targets)
}

// MinDominatorSize returns the size of a minimum dominator set of the vertex
// set target: the smallest set D of vertices such that every path from an
// input vertex of g to a vertex of target contains a vertex of D
// (Definition 3 of Hong & Kung).  Dominator vertices may be inputs or members
// of target.  Vertices of target with no path from any input are ignored (no
// path needs covering).  The companion minimum dominator set is returned too
// (sorted by vertex ID).
//
// The instance is solved strip-locally on a pooled CutSolver: only the
// vertices on some input→target path become flow-network nodes, so repeated
// dominator queries cost O(strip), not O(V+E).  The value is identical to a
// MinVertexCut from the inputs to the target on the full network.
func MinDominatorSize(g *cdag.Graph, target *cdag.VertexSet) (int, []cdag.VertexID) {
	cs := acquireSolver()
	defer releaseSolver(cs)
	return cs.MinDominatorSize(g, target)
}

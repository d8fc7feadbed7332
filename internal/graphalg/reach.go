package graphalg

import "cdagio/internal/cdag"

// Descendants returns the set of vertices reachable from v by directed paths
// of length ≥ 1 (v itself is excluded).
func Descendants(g *cdag.Graph, v cdag.VertexID) *cdag.VertexSet {
	off, val := g.SuccessorCSR()
	return reach(g, v, off, val)
}

// Ancestors returns the set of vertices from which v is reachable by directed
// paths of length ≥ 1 (v itself is excluded).
func Ancestors(g *cdag.Graph, v cdag.VertexID) *cdag.VertexSet {
	off, val := g.PredecessorCSR()
	return reach(g, v, off, val)
}

// reach sweeps the hoisted CSR rows (successor rows for Descendants,
// predecessor rows for Ancestors) from v.
func reach(g *cdag.Graph, v cdag.VertexID, off []int64, val []cdag.VertexID) *cdag.VertexSet {
	seen := cdag.NewVertexSet(g.NumVertices())
	var stack []cdag.VertexID
	for _, w := range val[off[v]:off[v+1]] {
		if seen.Add(w) {
			stack = append(stack, w)
		}
	}
	// Mark before pushing (as the CutSolver cone sweeps do): every edge is
	// inspected once and the stack never holds duplicates.
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range val[off[u]:off[u+1]] {
			if seen.Add(w) {
				stack = append(stack, w)
			}
		}
	}
	return seen
}

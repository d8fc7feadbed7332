package core

import (
	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/wavefront"
)

// TheoremBound is an executable, per-iteration form of the min-cut bounds of
// Theorems 8 and 9: instead of quoting the closed form, it decomposes the
// generated CDAG iteration by iteration (the non-disjoint decomposition of
// Theorem 4), computes the min-cut wavefront at the designated scalar vertex
// of each piece, and sums the Lemma 2 contributions.
type TheoremBound struct {
	// PerIteration lists the wavefront sizes found at the designated vertices
	// of each outer iteration (two entries per iteration: the alpha/h dot and
	// the gamma/norm reduction).
	PerIteration [][2]int
	// Total is the summed Lemma 2 bound Σ 2·(w − S), never negative.
	Total int64
	// ClosedForm is the paper's closed-form value for the same parameters,
	// for comparison.
	ClosedForm float64
}

// iterationPiece induces the sub-CDAG of one outer iteration together with
// the boundary vertices feeding it (the live vectors of the previous
// iteration), which is the piece the Theorem 4 decomposition analyzes.
func iterationPiece(g *cdag.Graph, iter *cdag.VertexSet) (*cdag.Graph, *cdag.SubgraphMapping) {
	piece := iter.Clone()
	piece.Union(cdag.In(g, iter))
	return cdag.InducedSubgraph(g, piece, "iteration-piece")
}

// wavefrontInPiece returns the min-cut wavefront of vertex x computed within
// its iteration piece, on the caller's solver.
func wavefrontInPiece(cs *graphalg.CutSolver, g *cdag.Graph, iter *cdag.VertexSet, x cdag.VertexID) int {
	sub, m := iterationPiece(g, iter)
	sx := m.FromParent[x]
	if sx == cdag.InvalidVertex {
		return 0
	}
	return cs.MinWavefrontAt(sub, sx)
}

// CGMinCutBound executes the Theorem 8 recipe on a generated CG CDAG: for
// every outer iteration it measures the wavefronts at the alpha and gamma
// scalars within that iteration's piece and sums 2·(w − S) over all pieces.
// The result is a data-movement lower bound for the whole CDAG under the RBW
// game with fast memory s (divide by P for the parallel per-processor form of
// Theorem 5).
func CGMinCutBound(cg *gen.CGResult, s int) TheoremBound {
	g := cg.Graph
	tb := TheoremBound{}
	points := float64(cg.Grid.Points())
	cs := graphalg.NewCutSolver()
	for t := 0; t < cg.Iterations; t++ {
		wa := wavefrontInPiece(cs, g, cg.IterationVertices[t], cg.AlphaVertex[t])
		wg := wavefrontInPiece(cs, g, cg.IterationVertices[t], cg.GammaVertex[t])
		tb.PerIteration = append(tb.PerIteration, [2]int{wa, wg})
		tb.Total += wavefront.Lemma2Bound(wa, s) + wavefront.Lemma2Bound(wg, s)
	}
	perIter := 2 * (3*points - 2*float64(s))
	if perIter < 0 {
		perIter = 0
	}
	tb.ClosedForm = perIter * float64(cg.Iterations)
	return tb
}

// GMRESMinCutBound executes the Theorem 9 recipe on a generated GMRES CDAG,
// measuring the wavefronts at the last Gram–Schmidt dot product and at the
// norm reduction of every outer iteration.
func GMRESMinCutBound(gm *gen.GMRESResult, s int) TheoremBound {
	g := gm.Graph
	tb := TheoremBound{}
	points := float64(gm.Grid.Points())
	cs := graphalg.NewCutSolver()
	for t := 0; t < gm.Iterations; t++ {
		wa := wavefrontInPiece(cs, g, gm.IterationVertices[t], gm.LastDotVertex[t])
		wg := wavefrontInPiece(cs, g, gm.IterationVertices[t], gm.NormVertex[t])
		tb.PerIteration = append(tb.PerIteration, [2]int{wa, wg})
		tb.Total += wavefront.Lemma2Bound(wa, s) + wavefront.Lemma2Bound(wg, s)
	}
	perIter := 2 * (3*points - float64(s))
	if perIter < 0 {
		perIter = 0
	}
	tb.ClosedForm = perIter * float64(gm.Iterations)
	return tb
}

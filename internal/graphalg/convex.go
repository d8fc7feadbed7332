package graphalg

import (
	"fmt"

	"cdagio/internal/cdag"
)

// ConvexCut is a partition (S, T) of the vertices of a CDAG such that there
// is no edge from T to S (equivalently, S is closed under predecessors).  In
// the terminology of Elango et al. Section 3.3, a convex cut associated with
// a vertex x has S ⊇ {x} ∪ Anc(x) and T ⊇ Desc(x).
type ConvexCut struct {
	S *cdag.VertexSet
	T *cdag.VertexSet
}

// Validate checks the defining properties of the convex cut for graph g:
// S and T partition V and no edge runs from T to S.
func (c ConvexCut) Validate(g *cdag.Graph) error {
	n := g.NumVertices()
	if c.S.Universe() != n || c.T.Universe() != n {
		return fmt.Errorf("graphalg: cut universes %d/%d do not match |V|=%d",
			c.S.Universe(), c.T.Universe(), n)
	}
	if c.S.Len()+c.T.Len() != n || c.S.Intersects(c.T) {
		return fmt.Errorf("graphalg: S and T do not partition V (|S|=%d |T|=%d |V|=%d)",
			c.S.Len(), c.T.Len(), n)
	}
	succOff, succVal := g.SuccessorCSR()
	for _, v := range c.T.Elements() {
		for _, w := range succVal[succOff[v]:succOff[v+1]] {
			if c.S.Contains(w) {
				return fmt.Errorf("graphalg: edge %d->%d runs from T to S", v, w)
			}
		}
	}
	return nil
}

// Boundary returns the set of vertices of S that have at least one successor
// in T — the wavefront induced by the cut.
func (c ConvexCut) Boundary(g *cdag.Graph) *cdag.VertexSet {
	b := cdag.NewVertexSet(g.NumVertices())
	succOff, succVal := g.SuccessorCSR()
	for _, v := range c.S.Elements() {
		for _, w := range succVal[succOff[v]:succOff[v+1]] {
			if c.T.Contains(w) {
				b.Add(v)
				break
			}
		}
	}
	return b
}

// ConvexCutAround returns the "earliest" valid convex cut associated with
// vertex x: S = {x} ∪ Anc(x) and T = V \ S.  Because ancestor sets are closed
// under predecessors this is always a valid convex cut, and it is the one
// induced by a schedule that fires x as soon as all its ancestors have fired.
func ConvexCutAround(g *cdag.Graph, x cdag.VertexID) ConvexCut {
	s := Ancestors(g, x)
	s.Add(x)
	return ConvexCut{S: s, T: s.Complement()}
}

// LatestConvexCutAround returns the "latest" valid convex cut associated with
// vertex x: T = Desc(x) and S = V \ T.  It corresponds to a schedule that
// postpones x's descendants as long as possible.
func LatestConvexCutAround(g *cdag.Graph, x cdag.VertexID) ConvexCut {
	t := Descendants(g, x)
	return ConvexCut{S: t.Complement(), T: t}
}

// MinWavefrontLowerBound returns a lower bound on the size of the minimum
// cardinality wavefront induced by x (Section 3.3): the minimum vertex cut
// separating {x} ∪ Anc(x) from Desc(x) when no vertex of Desc(x) may be
// chosen as a cut vertex.  Every valid convex cut (S_x, T_x) has a boundary
// that lies inside S_x — hence outside Desc(x) ⊆ T_x — and that intersects
// every path from {x} ∪ Anc(x) to Desc(x), so its size is at least this cut
// value; and the wavefront always contains x, so the bound is never smaller
// than 1.
//
// This is the reference implementation: it materializes the ancestor and
// descendant sets and solves on the full 2|V|+2-node vertex-split network via
// MinVertexCut.  Production paths (the w^max engine,
// MinWavefrontLowerBoundStrip) use the strip-local CutSolver engine instead,
// which computes the identical value at a cost proportional to the cone
// boundary and free strip; tests pin the two against each other.
func MinWavefrontLowerBound(g *cdag.Graph, x cdag.VertexID) int {
	desc := Descendants(g, x)
	if desc.Len() == 0 {
		return 1
	}
	anc := Ancestors(g, x)
	anc.Add(x)
	k, _ := MinVertexCut(g, anc.Elements(), desc.Elements(), CutOptions{
		UncuttableSet: desc,
	})
	if k < 1 {
		k = 1
	}
	return k
}

// WavefrontUpperBound returns the size of the boundary of the earliest and
// latest convex cuts around x, whichever is smaller, always counting x itself
// as part of the wavefront.  This is an achievable wavefront size, hence an
// upper bound on the minimum wavefront.
func WavefrontUpperBound(g *cdag.Graph, x cdag.VertexID) int {
	best := -1
	for _, cut := range []ConvexCut{ConvexCutAround(g, x), LatestConvexCutAround(g, x)} {
		b := cut.Boundary(g)
		size := b.Len()
		if !b.Contains(x) && cut.S.Contains(x) {
			size++ // x is in the wavefront by definition even without successors in T
		}
		if best < 0 || size < best {
			best = size
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

// MaxMinWavefrontLowerBoundSerial is the reference implementation of the
// w^max candidate search: a serial scan solving one fresh min-cut instance
// per candidate (all vertices when candidates is nil).  It returns the first
// candidate attaining the maximum.  Tests and benchmarks compare the
// parallel engine, MaxMinWavefrontLowerBoundCtx, against it.
func MaxMinWavefrontLowerBoundSerial(g *cdag.Graph, candidates []cdag.VertexID) (int, cdag.VertexID) {
	if candidates == nil {
		candidates = g.Vertices()
	}
	best, bestV := 0, cdag.InvalidVertex
	for _, x := range candidates {
		if w := MinWavefrontLowerBound(g, x); w > best {
			best, bestV = w, x
		}
	}
	return best, bestV
}

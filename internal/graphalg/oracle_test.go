package graphalg

import (
	"fmt"
	"math"

	"cdagio/internal/cdag"
)

// This file holds the reference implementations the engines are pinned to:
// the min-cut wavefront bound solved on the full 2|V|+2-node vertex-split
// network, the serial all-candidates w^max scan, the convex-cut upper bound
// and the full-network dominator.  They are deliberately the simple,
// historical formulations; the engines must reproduce their values (and, for
// the search, their witnesses) bit for bit.

// convexCut is a partition (S, T) of the vertices of a CDAG such that there
// is no edge from T to S (equivalently, S is closed under predecessors).  In
// the terminology of Elango et al. Section 3.3, a convex cut associated with
// a vertex x has S ⊇ {x} ∪ Anc(x) and T ⊇ Desc(x).
type convexCut struct {
	S *cdag.VertexSet
	T *cdag.VertexSet
}

// validate checks the defining properties of the convex cut for graph g:
// S and T partition V and no edge runs from T to S.
func (c convexCut) validate(g *cdag.Graph) error {
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

// boundary returns the set of vertices of S that have at least one successor
// in T — the wavefront induced by the cut.
func (c convexCut) boundary(g *cdag.Graph) *cdag.VertexSet {
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

// convexCutAround returns the "earliest" valid convex cut associated with
// vertex x: S = {x} ∪ Anc(x) and T = V \ S.
func convexCutAround(g *cdag.Graph, x cdag.VertexID) convexCut {
	s := Ancestors(g, x)
	s.Add(x)
	return convexCut{S: s, T: s.Complement()}
}

// latestConvexCutAround returns the "latest" valid convex cut associated with
// vertex x: T = Desc(x) and S = V \ T.
func latestConvexCutAround(g *cdag.Graph, x cdag.VertexID) convexCut {
	t := Descendants(g, x)
	return convexCut{S: t.Complement(), T: t}
}

// minVertexCut computes the minimum number of vertices whose removal
// disconnects every directed path from a source to a target, and one minimum
// cut sorted by vertex ID.  Cut vertices may coincide with sources or targets
// unless uncuttable (nil: every vertex may be cut) excludes them.  If a target
// is reachable from a source through uncuttable vertices only, the cut is
// impossible and the result is (-1, nil).
//
// It builds one fresh vertex-split network per call — vIn = 2v, vOut = 2v+1,
// super source 2n, super sink 2n+1 — in the historical arc order: each
// vertex's split arc followed by its edge arcs, then the source arcs, then
// the target arcs.  That order fixes the augmenting paths, and with them the
// cut sets the golden tests pin.
func minVertexCut(g *cdag.Graph, sources, targets []cdag.VertexID, uncuttable func(cdag.VertexID) bool) (int, []cdag.VertexID) {
	n := g.NumVertices()
	if n == 0 || len(sources) == 0 || len(targets) == 0 {
		return 0, nil
	}
	cuttable := func(v cdag.VertexID) bool { return uncuttable == nil || !uncuttable(v) }
	isTarget := cdag.NewVertexSetOf(n, targets...)
	for _, s := range sources {
		if isTarget.Contains(s) && !cuttable(s) {
			return -1, nil
		}
	}
	var f flowCSR
	succOff, succVal := g.SuccessorCSR()
	for v := 0; v < n; v++ {
		capV := flowInf
		if cuttable(cdag.VertexID(v)) {
			capV = 1
		}
		f.stageEdge(int32(2*v), int32(2*v+1), capV)
		for _, w := range succVal[succOff[v]:succOff[v+1]] {
			f.stageEdge(int32(2*v+1), int32(2*w), flowInf)
		}
	}
	s, t := int32(2*n), int32(2*n+1)
	for _, src := range sources {
		f.stageEdge(s, int32(2*src), flowInf)
	}
	for _, tgt := range targets {
		f.stageEdge(int32(2*tgt)+1, t, flowInf)
	}
	f.buildFresh(2*n + 2)
	flow, _ := f.maxFlowBounded(s, t, 0)
	if flow >= flowInf {
		return -1, nil
	}
	f.residualReach(s)
	var cut []cdag.VertexID
	for v := 0; v < n; v++ {
		if f.reached(int32(2*v)) && !f.reached(int32(2*v+1)) {
			cut = append(cut, cdag.VertexID(v))
		}
	}
	return int(flow), cut
}

// minWavefrontLowerBound is the reference form of CutSolver.MinWavefrontAt:
// the minimum vertex cut separating {x} ∪ Anc(x) from Desc(x), with Desc(x)
// uncuttable, on the full vertex-split network, and never less than 1.
func minWavefrontLowerBound(g *cdag.Graph, x cdag.VertexID) int {
	desc := Descendants(g, x)
	if desc.Len() == 0 {
		return 1
	}
	anc := Ancestors(g, x)
	anc.Add(x)
	k, _ := minVertexCut(g, anc.Elements(), desc.Elements(), desc.Contains)
	return max(k, 1)
}

// wavefrontUpperBound returns the boundary size of the earliest or latest
// convex cut around x, whichever is smaller, always counting x itself: an
// achievable wavefront size, hence an upper bound on the minimum wavefront.
func wavefrontUpperBound(g *cdag.Graph, x cdag.VertexID) int {
	best := -1
	for _, cut := range []convexCut{convexCutAround(g, x), latestConvexCutAround(g, x)} {
		b := cut.boundary(g)
		size := b.Len()
		if !b.Contains(x) && cut.S.Contains(x) {
			size++ // x is in the wavefront by definition even without successors in T
		}
		if best < 0 || size < best {
			best = size
		}
	}
	return max(best, 1)
}

// maxMinWavefrontLowerBoundSerial is the reference form of the w^max
// candidate search: one full-network solve per candidate (all vertices when
// candidates is nil), returning the maximum and the first candidate attaining
// it.
func maxMinWavefrontLowerBoundSerial(g *cdag.Graph, candidates []cdag.VertexID) (int, cdag.VertexID) {
	if candidates == nil {
		candidates = g.Vertices()
	}
	best, bestV := 0, cdag.InvalidVertex
	for _, x := range candidates {
		if w := minWavefrontLowerBound(g, x); w > best {
			best, bestV = w, x
		}
	}
	return best, bestV
}

// minDominatorSizeFull is the full-network route to the dominator bound: a
// vertex min-cut from the inputs to the target.  The strip-local
// CutSolver.MinDominatorSize must match its value.
func minDominatorSizeFull(g *cdag.Graph, target *cdag.VertexSet) (int, []cdag.VertexID) {
	inputs := g.Inputs()
	if len(inputs) == 0 || target.Len() == 0 {
		return 0, nil
	}
	k, cut := minVertexCut(g, inputs, target.Elements(), nil)
	if k < 0 {
		return 0, nil
	}
	return k, cut
}

// upperBound computes wavefrontUpperBound(g, x) from the current epoch's
// marks with the search's own tiers, earlyBound and lateBound: the smaller
// boundary of the earliest and latest convex cuts around x, always counting x
// itself.  The late bound runs without source intervals, which is what makes
// it the latest convex cut's boundary.
func (cs *CutSolver) upperBound(x cdag.VertexID) int {
	if len(cs.desc) == 0 {
		// With no descendants the latest cut has boundary {x}.
		return 1
	}
	return max(min(cs.earlyBound(x, math.MaxInt, spans{}), cs.lateBound(x, math.MaxInt, spans{})), 1)
}

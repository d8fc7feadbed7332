package graphalg

import (
	"math"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// demandSpans returns the source intervals the w^max scan uses on g: the
// sources ranked in demand order.
func demandSpans(g *cdag.Graph) sourceSpans {
	_, spans := scheduleWavefrontUB(g, g.Vertices(), true)
	return spans
}

// idSpans returns the source intervals with the sources ranked by ID: Kahn's
// order starts with every source, in ID order.
func idSpans(g *cdag.Graph) sourceSpans {
	n := g.NumVertices()
	return fillSourceSpans(g, g.MustTopoOrder(), make([]int32, n), make([]int32, n))
}

// TestSourceSpansSound checks the intervals on every property graph under
// both rankings, by brute force with Ancestors and Descendants.  Each source
// gets its own rank in the ranking's order; every vertex's interval is the
// exact hull of the ranks of the sources that reach it; and every vertex p
// reachable from A = {x} ∪ Anc(x) has an interval that meets x's, so a miss
// proves p unreachable.
func TestSourceSpansSound(t *testing.T) {
	proven := 0 // pairs (x, p) whose disjoint intervals prove p unreachable
	for _, sg := range scheduleGraphs(t) {
		g, n := sg.g, sg.g.NumVertices()
		closedAnc := make([]*cdag.VertexSet, n)
		desc := make([]*cdag.VertexSet, n)
		for v := range n {
			closedAnc[v] = Ancestors(g, cdag.VertexID(v))
			closedAnc[v].Add(cdag.VertexID(v))
			desc[v] = Descendants(g, cdag.VertexID(v))
		}
		var byDemand, byID []cdag.VertexID
		for _, v := range demandOrderReference(g) {
			if g.InDegree(v) == 0 {
				byDemand = append(byDemand, v)
			}
		}
		for _, v := range g.Vertices() {
			if g.InDegree(v) == 0 {
				byID = append(byID, v)
			}
		}
		for _, ranking := range []struct {
			name    string
			spans   sourceSpans
			sources []cdag.VertexID
		}{
			{"demand", demandSpans(g), byDemand},
			{"id", idSpans(g), byID},
		} {
			sp := ranking.spans
			rank := make([]int32, n)
			for r, s := range ranking.sources {
				if sp.lo[s] != int32(r) || sp.hi[s] != int32(r) {
					t.Fatalf("%s (%s ranking): source %d has interval [%d, %d], want its rank %d",
						sg.name, ranking.name, s, sp.lo[s], sp.hi[s], r)
				}
				rank[s] = int32(r)
			}
			for v := range n {
				lo, hi := int32(math.MaxInt32), int32(-1)
				for _, s := range ranking.sources {
					if closedAnc[v].Contains(s) {
						lo, hi = min(lo, rank[s]), max(hi, rank[s])
					}
				}
				if sp.lo[v] != lo || sp.hi[v] != hi {
					t.Fatalf("%s (%s ranking): vertex %d has interval [%d, %d], its sources span [%d, %d]",
						sg.name, ranking.name, v, sp.lo[v], sp.hi[v], lo, hi)
				}
			}
			for x := range n {
				reach := closedAnc[x].Clone()
				for _, a := range closedAnc[x].Elements() {
					reach.Union(desc[a])
				}
				for p := range n {
					missed := sp.misses(cdag.VertexID(x), cdag.VertexID(p))
					if missed && reach.Contains(cdag.VertexID(p)) {
						t.Fatalf("%s (%s ranking): vertex %d is reachable from {%d} ∪ Anc(%d), but its interval [%d, %d] misses [%d, %d]",
							sg.name, ranking.name, p, x, x, sp.lo[p], sp.hi[p], sp.lo[x], sp.hi[x])
					}
					if missed {
						proven++
					}
				}
			}
		}
	}
	if proven == 0 {
		t.Fatal("weak coverage: no interval proved a vertex unreachable")
	}
}

// TestSpannedLateBoundAboveMinCut checks the late bound the scan prunes on.
// With the demand-order intervals, the count of the predecessors of Desc(x)
// whose interval meets x's is at least the full-network min cut on every
// vertex of the property graphs and at most the count without intervals,
// and lateBound falls below a threshold exactly when that count does.  On a
// butterfly and two trees, where the intervals are exact, the count is 1 on
// every vertex with descendants: FFT(64) and BinomialTree(6) have 384 such
// vertices, ReductionTree(64) 126.
func TestSpannedLateBoundAboveMinCut(t *testing.T) {
	cs := NewCutSolver()
	for _, sg := range scheduleGraphs(t) {
		g := sg.g
		sp := demandSpans(g)
		cs.ensureGraph(g)
		for _, x := range g.Vertices() {
			cs.explore(x)
			if len(cs.desc) == 0 {
				continue // the scan records 1 without a late bound
			}
			late := cs.countLate(x, math.MaxInt, sp, cs.epoch)
			cs.explore(x)
			full := cs.countLate(x, math.MaxInt, sourceSpans{}, cs.epoch)
			if want := minWavefrontLowerBound(g, x); late < want || late > full {
				t.Fatalf("%s vertex %d: late count %d with intervals, %d without, min cut %d", sg.name, x, late, full, want)
			}
			for _, need := range []int{1, 2, late, late + 1, full, full + 1} {
				cs.explore(x)
				if got := cs.lateBound(x, need, sp); (got < need) != (late < need) {
					t.Fatalf("%s vertex %d: lateBound(%d) = %d, but the late count with intervals is %d", sg.name, x, need, got, late)
				}
			}
		}
	}
	for _, k := range []struct {
		name string
		g    *cdag.Graph
		want int
	}{
		{"fft64", gen.FFT(64), 384},
		{"binomial6", gen.BinomialTree(6), 384},
		{"reduction64", gen.ReductionTree(64), 126},
	} {
		sp := demandSpans(k.g)
		cs.ensureGraph(k.g)
		withDesc := 0
		for _, x := range k.g.Vertices() {
			cs.explore(x)
			if len(cs.desc) == 0 {
				continue
			}
			withDesc++
			if late := cs.countLate(x, math.MaxInt, sp, cs.epoch); late != 1 {
				t.Fatalf("%s vertex %d: late count %d with intervals, want 1", k.name, x, late)
			}
		}
		if withDesc != k.want {
			t.Fatalf("%s: %d vertices with descendants, want %d", k.name, withDesc, k.want)
		}
	}
}

package graphalg

import (
	"math"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// demandSpans returns the source intervals the w^max scan uses on g: the
// sources ranked in demand order.
func demandSpans(g *cdag.Graph) spans {
	_, sources, _ := scheduleWavefrontUB(g, g.Vertices(), true)
	return sources
}

// idSpans returns the source intervals with the sources ranked by ID: Kahn's
// order starts with every source, in ID order.
func idSpans(g *cdag.Graph) spans {
	n := g.NumVertices()
	pOff, pVal := g.PredecessorCSR()
	sources, _ := fillSpans(g.MustTopoOrder(), pOff, pVal, make([]int32, n), make([]int32, n))
	return sources
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
			spans   spans
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
			full := cs.countLate(x, math.MaxInt, spans{}, cs.epoch)
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

// TestSinkSpansSound is TestSourceSpansSound's mirror for the sink
// intervals, on every property graph, by brute force with Descendants.  The
// sinks are ranked in the recursive post-order over successors from each
// source; every vertex's interval is the exact hull of the ranks of the sinks
// it reaches; and every vertex w that reaches {x} ∪ Desc(x) has an interval
// that meets x's, so a miss proves w reaches neither.
func TestSinkSpansSound(t *testing.T) {
	proven := 0 // pairs (x, w) whose disjoint intervals prove w misses x's cone
	for _, sg := range scheduleGraphs(t) {
		g, n := sg.g, sg.g.NumVertices()
		sOff, sVal, pOff, _ := g.AdjacencyCSR()
		sinks := sinkSpans(g, make([]cdag.VertexID, n))
		closedDesc := make([]*cdag.VertexSet, n)
		for v := range n {
			closedDesc[v] = Descendants(g, cdag.VertexID(v))
			closedDesc[v].Add(cdag.VertexID(v))
		}
		var ranked []cdag.VertexID
		for _, v := range postOrderReference(pOff, sOff, sVal) {
			if g.OutDegree(v) == 0 {
				ranked = append(ranked, v)
			}
		}
		rank := make([]int32, n)
		for r, s := range ranked {
			if sinks.lo[s] != int32(r) || sinks.hi[s] != int32(r) {
				t.Fatalf("%s: sink %d has interval [%d, %d], want its rank %d", sg.name, s, sinks.lo[s], sinks.hi[s], r)
			}
			rank[s] = int32(r)
		}
		for v := range n {
			lo, hi := int32(math.MaxInt32), int32(-1)
			for _, s := range ranked {
				if closedDesc[v].Contains(s) {
					lo, hi = min(lo, rank[s]), max(hi, rank[s])
				}
			}
			if sinks.lo[v] != lo || sinks.hi[v] != hi {
				t.Fatalf("%s: vertex %d has interval [%d, %d], its sinks span [%d, %d]",
					sg.name, v, sinks.lo[v], sinks.hi[v], lo, hi)
			}
		}
		for x := range n {
			for w := range n {
				missed := sinks.misses(cdag.VertexID(x), cdag.VertexID(w))
				if missed && closedDesc[w].Intersects(closedDesc[x]) {
					t.Fatalf("%s: vertex %d reaches {%d} ∪ Desc(%d), but its interval [%d, %d] misses [%d, %d]",
						sg.name, w, x, x, sinks.lo[w], sinks.hi[w], sinks.lo[x], sinks.hi[x])
				}
				if missed {
					proven++
				}
			}
		}
	}
	if proven == 0 {
		t.Fatal("weak coverage: no interval proved that a vertex misses a cone")
	}
}

// TestSpannedEarlyBoundAboveMinCut checks the early bound the scan keys and
// prunes on.  With sink intervals, the count of x and the ancestors whose
// successor outside {x} ∪ Anc(x) has an interval meeting x's is at least the
// full-network min cut on every vertex of the property graphs and at most
// the count without intervals; earlyBound falls below a threshold exactly
// when that count does, and is never below the min cut, so it is a key for
// every threshold.  On FFT(64) and ReductionTree(64), where the scan's
// intervals are exact, both the early bound with sink intervals and the
// late bound with source intervals are 1 on every vertex with descendants.
func TestSpannedEarlyBoundAboveMinCut(t *testing.T) {
	cs := NewCutSolver()
	for _, sg := range scheduleGraphs(t) {
		g := sg.g
		sinks := sinkSpans(g, make([]cdag.VertexID, g.NumVertices()))
		cs.ensureGraph(g)
		for _, x := range g.Vertices() {
			cs.explore(x)
			if len(cs.desc) == 0 {
				continue // the scan records 1 without an early bound
			}
			early := cs.countEarly(x, math.MaxInt, sinks)
			full := cs.countEarly(x, math.MaxInt, spans{})
			want := minWavefrontLowerBound(g, x)
			if early < want || early > full {
				t.Fatalf("%s vertex %d: early count %d with intervals, %d without, min cut %d", sg.name, x, early, full, want)
			}
			for _, need := range []int{0, 1, 2, early, early + 1, full, full + 1} {
				got := cs.earlyBound(x, need, sinks)
				if (got < need) != (early < need) || got < want {
					t.Fatalf("%s vertex %d: earlyBound(%d) = %d, but the early count with intervals is %d and the min cut %d",
						sg.name, x, need, got, early, want)
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
		{"reduction64", gen.ReductionTree(64), 126},
	} {
		_, sources, sinks := scheduleWavefrontUB(k.g, k.g.Vertices(), true)
		if sinks.lo == nil {
			t.Fatalf("%s: the scan computes no sink intervals", k.name)
		}
		cs.ensureGraph(k.g)
		withDesc := 0
		for _, x := range k.g.Vertices() {
			cs.explore(x)
			if len(cs.desc) == 0 {
				continue
			}
			withDesc++
			early := cs.countEarly(x, math.MaxInt, sinks)
			late := cs.countLate(x, math.MaxInt, sources, cs.epoch)
			if early != 1 || late != 1 {
				t.Fatalf("%s vertex %d: early count %d with sink intervals, late count %d with source intervals, want 1 and 1",
					k.name, x, early, late)
			}
		}
		if withDesc != k.want {
			t.Fatalf("%s: %d vertices with descendants, want %d", k.name, withDesc, k.want)
		}
	}
}

// TestSinkSpansGate pins which graphs the scan computes sink intervals for:
// those whose source intervals come out exact, butterflies and reduction
// trees, and not stencils, Krylov iterations, the composite kernel, the heat
// equation or binomial trees, whose scans stay as they were.  A scan of at
// most 32 candidates computes no intervals at all.  Where the gate passes,
// the cone sizes that pick each candidate's side are |Anc| and |Desc|.
func TestSinkSpansGate(t *testing.T) {
	for _, k := range []struct {
		name  string
		g     *cdag.Graph
		exact bool
	}{
		{"fft64", gen.FFT(64), true},
		{"fft1024", gen.FFT(1024), true},
		{"reduction64", gen.ReductionTree(64), true},
		{"reduction100", gen.ReductionTree(100), true},
		{"chain", gen.Chain(30), true},
		{"jacobi2d", gen.Jacobi(2, 6, 3, gen.StencilBox).Graph, false},
		{"cg", gen.CG(2, 4, 2).Graph, false},
		{"gmres", gen.GMRES(2, 4, 2).Graph, false},
		{"composite", gen.Composite(6).Graph, false},
		{"heat1d", gen.HeatEquation1D(12, 3).Graph, false},
		{"binomial6", gen.BinomialTree(6), false},
		{"binomial12", gen.BinomialTree(12), false},
	} {
		_, sources, sinks := scheduleWavefrontUB(k.g, k.g.Vertices(), true)
		if sources.lo == nil || (sinks.lo != nil) != k.exact {
			t.Errorf("%s: source intervals %v, sink intervals %v, want sink intervals %v",
				k.name, sources.lo != nil, sinks.lo != nil, k.exact)
		}
		if _, sources, sinks := scheduleWavefrontUB(k.g, k.g.Vertices(), false); sources.lo != nil || sinks.lo != nil {
			t.Errorf("%s: intervals without a bound pass", k.name)
		}
		if sinks.lo == nil || k.g.NumVertices() > 1000 {
			continue
		}
		for _, v := range k.g.Vertices() {
			anc, desc := Ancestors(k.g, v).Len(), Descendants(k.g, v).Len()
			if int(sources.cone[v]) != anc || int(sinks.cone[v]) != desc {
				t.Fatalf("%s vertex %d: cone sizes %d and %d, |Anc| = %d and |Desc| = %d",
					k.name, v, sources.cone[v], sinks.cone[v], anc, desc)
			}
		}
	}
}

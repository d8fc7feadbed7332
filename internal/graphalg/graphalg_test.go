package graphalg

import (
	"testing"
	"testing/quick"

	"cdagio/internal/cdag"
)

// chain builds a path graph v0 -> v1 -> ... -> v_{n-1}.
func chain(n int) *cdag.Graph {
	g := cdag.NewGraph("chain", n)
	g.AddVertices(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(cdag.VertexID(i), cdag.VertexID(i+1))
	}
	return g
}

// diamond builds a -> {b,c} -> d.
func diamond() (*cdag.Graph, [4]cdag.VertexID) {
	g := cdag.NewGraph("diamond", 4)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddOutput("d")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g, [4]cdag.VertexID{a, b, c, d}
}

// butterfly builds a 2-input, 2-output butterfly:
// in0,in1 -> m0,m1 (complete bipartite) -> out0,out1 (complete bipartite).
func butterfly() (*cdag.Graph, []cdag.VertexID) {
	g := cdag.NewGraph("butterfly", 6)
	in0 := g.AddInput("in0")
	in1 := g.AddInput("in1")
	m0 := g.AddVertex("m0")
	m1 := g.AddVertex("m1")
	out0 := g.AddOutput("out0")
	out1 := g.AddOutput("out1")
	for _, i := range []cdag.VertexID{in0, in1} {
		for _, m := range []cdag.VertexID{m0, m1} {
			g.AddEdge(i, m)
		}
	}
	for _, m := range []cdag.VertexID{m0, m1} {
		for _, o := range []cdag.VertexID{out0, out1} {
			g.AddEdge(m, o)
		}
	}
	return g, []cdag.VertexID{in0, in1, m0, m1, out0, out1}
}

func TestAncestorsDescendants(t *testing.T) {
	g, v := diamond()
	if d := Descendants(g, v[0]); d.Len() != 3 {
		t.Errorf("Descendants(a) = %v", d.Elements())
	}
	if d := Descendants(g, v[3]); d.Len() != 0 {
		t.Errorf("Descendants(d) = %v", d.Elements())
	}
	if a := Ancestors(g, v[3]); a.Len() != 3 {
		t.Errorf("Ancestors(d) = %v", a.Elements())
	}
	if a := Ancestors(g, v[1]); a.Len() != 1 || !a.Contains(v[0]) {
		t.Errorf("Ancestors(b) = %v", a.Elements())
	}
	if !Descendants(g, v[0]).Contains(v[3]) || Descendants(g, v[1]).Contains(v[2]) || Descendants(g, v[3]).Contains(v[0]) {
		t.Errorf("Descendants reachability wrong")
	}
	if Descendants(g, v[0]).Contains(v[0]) || Ancestors(g, v[3]).Contains(v[3]) {
		t.Errorf("a vertex is not its own descendant or ancestor (length >= 1 required)")
	}
}

func TestMinVertexCutDiamond(t *testing.T) {
	g, v := diamond()
	// Separating a from d requires either {a}, {d}, or {b,c}; minimum is 1.
	k, cut := minVertexCut(g, []cdag.VertexID{v[0]}, []cdag.VertexID{v[3]}, nil)
	if k != 1 {
		t.Fatalf("min cut = %d, want 1", k)
	}
	if len(cut) != 1 {
		t.Fatalf("cut set = %v", cut)
	}
	// Forbid cutting a and d: the cut must be {b, c}.
	uncut := func(u cdag.VertexID) bool { return u == v[0] || u == v[3] }
	k2, cut2 := minVertexCut(g, []cdag.VertexID{v[0]}, []cdag.VertexID{v[3]}, uncut)
	if k2 != 2 || len(cut2) != 2 {
		t.Fatalf("restricted min cut = %d (%v), want 2", k2, cut2)
	}
}

func TestMinVertexCutImpossible(t *testing.T) {
	g := chain(2)
	all := func(cdag.VertexID) bool { return true }
	k, _ := minVertexCut(g, []cdag.VertexID{0}, []cdag.VertexID{1}, all)
	if k != -1 {
		t.Fatalf("expected impossible cut, got %d", k)
	}
	// Source equals target and is uncuttable.
	k2, _ := minVertexCut(g, []cdag.VertexID{0}, []cdag.VertexID{0}, all)
	if k2 != -1 {
		t.Fatalf("expected impossible overlap cut, got %d", k2)
	}
}

func TestMinVertexCutTrivial(t *testing.T) {
	g := chain(3)
	if k, _ := minVertexCut(g, nil, []cdag.VertexID{2}, nil); k != 0 {
		t.Errorf("empty sources should give 0, got %d", k)
	}
	if k, _ := minVertexCut(g, []cdag.VertexID{0}, nil, nil); k != 0 {
		t.Errorf("empty targets should give 0, got %d", k)
	}
	// Unreachable target: cut of size 0.
	g2 := cdag.NewGraph("two", 2)
	g2.AddVertices(2)
	if k, _ := minVertexCut(g2, []cdag.VertexID{0}, []cdag.VertexID{1}, nil); k != 0 {
		t.Errorf("unreachable target should give 0, got %d", k)
	}
}

func TestMaxVertexDisjointPathsButterfly(t *testing.T) {
	g, v := butterfly()
	// From the two inputs to the two outputs there are 2 vertex-disjoint paths
	// (limited by the 2 middle vertices).
	// By Menger's theorem the count equals the min vertex cut with every
	// vertex cuttable.
	if k, _ := minVertexCut(g, []cdag.VertexID{v[0], v[1]}, []cdag.VertexID{v[4], v[5]}, nil); k != 2 {
		t.Fatalf("disjoint paths = %d, want 2", k)
	}
	// From one input to the outputs only 1 fully disjoint path exists
	// (they'd share the input).
	if k, _ := minVertexCut(g, []cdag.VertexID{v[0]}, []cdag.VertexID{v[4], v[5]}, nil); k != 1 {
		t.Fatalf("disjoint paths from single input = %d, want 1", k)
	}
}

func TestMinDominatorSize(t *testing.T) {
	g, v := butterfly()
	// Dominating the outputs: the 2 middle vertices suffice (or the 2 inputs).
	target := cdag.NewVertexSetOf(g.NumVertices(), v[4], v[5])
	cs := NewCutSolver()
	k, dom := cs.MinDominatorSize(g, target)
	if k != 2 || len(dom) != 2 {
		t.Fatalf("dominator size = %d (%v), want 2", k, dom)
	}
	// Dominating a single middle vertex: 1 (itself or one input? no — both
	// inputs reach it, so either {m0} or {in0,in1}; min is 1).
	target2 := cdag.NewVertexSetOf(g.NumVertices(), v[2])
	if k2, _ := cs.MinDominatorSize(g, target2); k2 != 1 {
		t.Fatalf("dominator size = %d, want 1", k2)
	}
	// Empty target.
	if k3, _ := cs.MinDominatorSize(g, cdag.NewVertexSet(g.NumVertices())); k3 != 0 {
		t.Fatalf("empty target dominator = %d, want 0", k3)
	}
	// Graph with no inputs.
	g2 := chain(3)
	if k4, _ := cs.MinDominatorSize(g2, cdag.NewVertexSetOf(3, 2)); k4 != 0 {
		t.Fatalf("no-input dominator = %d, want 0", k4)
	}
}

func TestDominatorVerification(t *testing.T) {
	// Verify the returned dominator actually dominates: removing it must
	// disconnect all inputs from the target set.
	g, v := butterfly()
	target := cdag.NewVertexSetOf(g.NumVertices(), v[4], v[5])
	_, dom := NewCutSolver().MinDominatorSize(g, target)
	removed := cdag.NewVertexSet(g.NumVertices())
	removed.AddAll(dom)
	// BFS from inputs avoiding removed vertices must not reach the target.
	stack := []cdag.VertexID{}
	for _, in := range g.Inputs() {
		if !removed.Contains(in) {
			stack = append(stack, in)
		}
	}
	seen := cdag.NewVertexSet(g.NumVertices())
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen.Add(u) {
			continue
		}
		if target.Contains(u) {
			t.Fatalf("dominator %v does not dominate: reached %d", dom, u)
		}
		for _, w := range g.Succ(u) {
			if !removed.Contains(w) {
				stack = append(stack, w)
			}
		}
	}
}

func TestConvexCutAround(t *testing.T) {
	g, v := diamond()
	cut := convexCutAround(g, v[1]) // S = {a, b}
	if err := cut.validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cut.S.Len() != 2 || !cut.S.Contains(v[0]) || !cut.S.Contains(v[1]) {
		t.Fatalf("S = %v", cut.S.Elements())
	}
	b := cut.boundary(g)
	// Both a (edge to c) and b (edge to d) are boundary vertices.
	if b.Len() != 2 {
		t.Fatalf("boundary = %v", b.Elements())
	}

	late := latestConvexCutAround(g, v[1]) // T = {d}, S = {a,b,c}
	if err := late.validate(g); err != nil {
		t.Fatalf("Validate late: %v", err)
	}
	if late.T.Len() != 1 || !late.T.Contains(v[3]) {
		t.Fatalf("late T = %v", late.T.Elements())
	}
	lb := late.boundary(g)
	if lb.Len() != 2 || !lb.Contains(v[1]) || !lb.Contains(v[2]) {
		t.Fatalf("late boundary = %v", lb.Elements())
	}
}

func TestConvexCutValidateErrors(t *testing.T) {
	g, v := diamond()
	// Non-partitioning sets.
	s := cdag.NewVertexSetOf(4, v[0])
	tt := cdag.NewVertexSetOf(4, v[0], v[1], v[2], v[3])
	if err := (convexCut{S: s, T: tt}).validate(g); err == nil {
		t.Errorf("expected error for overlapping cut")
	}
	// Edge from T to S: S = {b, d}? d has no out-edges; use S = {d}, T = rest:
	// edges b->d and c->d run from T to S.
	s2 := cdag.NewVertexSetOf(4, v[3])
	t2 := s2.Complement()
	if err := (convexCut{S: s2, T: t2}).validate(g); err == nil {
		t.Errorf("expected error for non-convex cut")
	}
	// Wrong universe.
	s3 := cdag.NewVertexSet(3)
	t3 := cdag.NewVertexSet(3)
	if err := (convexCut{S: s3, T: t3}).validate(g); err == nil {
		t.Errorf("expected error for wrong universe")
	}
}

func TestMinWavefrontLowerBound(t *testing.T) {
	// Both the reference and the strip-local engine must produce each value.
	cs := NewCutSolver()
	bound := func(t *testing.T, g *cdag.Graph, x cdag.VertexID) int {
		t.Helper()
		w := minWavefrontLowerBound(g, x)
		if got := cs.MinWavefrontAt(g, x); got != w {
			t.Fatalf("vertex %d: strip engine %d, reference %d", x, got, w)
		}
		return w
	}
	g, v := diamond()
	// Around a: Desc(a) = {b,c,d}; only 1 disjoint path can leave a.
	if w := bound(t, g, v[0]); w != 1 {
		t.Errorf("wavefront LB around a = %d, want 1", w)
	}
	// Around d: no descendants, wavefront is {d}.
	if w := bound(t, g, v[3]); w != 1 {
		t.Errorf("wavefront LB around d = %d, want 1", w)
	}

	// Reduction-style CDAG: two "vectors" of size k each feeding a dot product
	// vertex, and each vector element also feeding its own later consumer
	// (disjoint paths) — the structure behind the CG/GMRES wavefront argument.
	k := 5
	g2 := cdag.NewGraph("reduction", 0)
	dot := g2.AddVertex("dot")
	consumers := make([]cdag.VertexID, 0, 2*k)
	elems := make([]cdag.VertexID, 0, 2*k)
	for i := 0; i < 2*k; i++ {
		e := g2.AddInput("e")
		elems = append(elems, e)
		g2.AddEdge(e, dot)
		c := g2.AddOutput("c")
		consumers = append(consumers, c)
		g2.AddEdge(e, c)
		g2.AddEdge(dot, c) // consumer needs the reduction result too
	}
	// The wavefront induced by dot must hold all 2k vector elements (each has
	// a successor among dot's descendants) plus dot itself.
	if w := bound(t, g2, dot); w != 2*k+1 {
		t.Errorf("reduction wavefront LB = %d, want %d", w, 2*k+1)
	}
	if ub := wavefrontUpperBound(g2, dot); ub < 2*k+1 {
		t.Errorf("wavefront UB %d below LB %d", ub, 2*k+1)
	}
	_ = elems
	_ = consumers
}

func TestWavefrontUpperBoundAtLeastLower(t *testing.T) {
	g, _ := butterfly()
	for _, x := range g.Vertices() {
		lb := minWavefrontLowerBound(g, x)
		ub := wavefrontUpperBound(g, x)
		if ub < lb {
			t.Errorf("vertex %d: UB %d < LB %d", x, ub, lb)
		}
	}
}

func TestMaxMinWavefrontLowerBound(t *testing.T) {
	g, v := butterfly()
	w, at := wmax(t, g, nil, WMaxOptions{})
	if w < 2 {
		t.Errorf("max wavefront LB = %d, want >= 2", w)
	}
	if at == cdag.InvalidVertex {
		t.Errorf("no vertex reported")
	}
	// Restricting candidates to a sink yields 1.
	w2, _ := wmax(t, g, []cdag.VertexID{v[4]}, WMaxOptions{})
	if w2 != 1 {
		t.Errorf("sink wavefront LB = %d, want 1", w2)
	}
}

// Property: for random layered DAGs, the reference vertex cut between sources
// and sinks reports a cut set of its size, and that cut disconnects the
// graph.
func TestMinVertexCutProperty(t *testing.T) {
	f := func(edgesRaw []uint16, nRaw uint8) bool {
		n := int(nRaw%12) + 4
		g := cdag.NewGraph("rand", n)
		g.AddVertices(n)
		for _, e := range edgesRaw {
			u := int(e) % n
			v := int(e>>8) % n
			if u >= v {
				continue
			}
			g.AddEdge(cdag.VertexID(u), cdag.VertexID(v))
		}
		sources := g.Sources()
		sinks := g.Sinks()
		if len(sources) == 0 || len(sinks) == 0 {
			return true
		}
		k, cut := minVertexCut(g, sources, sinks, nil)
		if k < 0 || len(cut) != k {
			return false
		}
		// Removing the cut must disconnect sources from sinks... unless a
		// source IS a sink (isolated vertex) in which case it must be in the cut.
		removed := cdag.NewVertexSet(n)
		removed.AddAll(cut)
		seen := cdag.NewVertexSet(n)
		stack := []cdag.VertexID{}
		for _, s := range sources {
			if !removed.Contains(s) {
				stack = append(stack, s)
			}
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen.Add(u) {
				continue
			}
			for _, w := range g.Succ(u) {
				if !removed.Contains(w) {
					stack = append(stack, w)
				}
			}
		}
		for _, snk := range sinks {
			if seen.Contains(snk) && len(g.Pred(snk)) > 0 {
				// A reachable true sink (has predecessors) not cut: invalid cut.
				return false
			}
			if seen.Contains(snk) && len(g.Pred(snk)) == 0 {
				// Isolated vertex that is both source and sink: it can only be
				// "separated" by cutting it, so it must not be reachable here.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the wavefront lower bound never exceeds the achievable upper bound.
func TestWavefrontBoundsProperty(t *testing.T) {
	f := func(edgesRaw []uint16, nRaw uint8, xRaw uint8) bool {
		n := int(nRaw%15) + 2
		g := cdag.NewGraph("rand", n)
		g.AddVertices(n)
		for _, e := range edgesRaw {
			u := int(e) % n
			v := int(e>>8) % n
			if u >= v {
				continue
			}
			g.AddEdge(cdag.VertexID(u), cdag.VertexID(v))
		}
		x := cdag.VertexID(int(xRaw) % n)
		lb := minWavefrontLowerBound(g, x)
		ub := wavefrontUpperBound(g, x)
		return lb >= 1 && ub >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

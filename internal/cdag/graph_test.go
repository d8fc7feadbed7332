package cdag

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the 4-vertex diamond a -> {b,c} -> d with a as input and d
// as output.
func diamond(t testing.TB) (*Graph, [4]VertexID) {
	t.Helper()
	g := NewGraph("diamond", 4)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddOutput("d")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g, [4]VertexID{a, b, c, d}
}

func TestGraphBasics(t *testing.T) {
	g, v := diamond(t)
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.NumInputs(); got != 1 {
		t.Errorf("NumInputs = %d, want 1", got)
	}
	if got := g.NumOutputs(); got != 1 {
		t.Errorf("NumOutputs = %d, want 1", got)
	}
	if got := g.NumOperations(); got != 3 {
		t.Errorf("NumOperations = %d, want 3", got)
	}
	if !g.HasEdge(v[0], v[1]) || g.HasEdge(v[1], v[0]) {
		t.Errorf("edge presence wrong")
	}
	if g.InDegree(v[3]) != 2 || g.OutDegree(v[0]) != 2 {
		t.Errorf("degrees wrong: in(d)=%d out(a)=%d", g.InDegree(v[3]), g.OutDegree(v[0]))
	}
	if !g.IsInput(v[0]) || g.IsInput(v[1]) {
		t.Errorf("input tags wrong")
	}
	if !g.IsOutput(v[3]) || g.IsOutput(v[2]) {
		t.Errorf("output tags wrong")
	}
	if g.Label(v[1]) != "b" {
		t.Errorf("Label = %q, want b", g.Label(v[1]))
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := NewGraph("dup", 2)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after duplicate insert", g.NumEdges())
	}
	if len(g.Succ(a)) != 1 || len(g.Pred(b)) != 1 {
		t.Fatalf("adjacency contains duplicates")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := NewGraph("loop", 1)
	a := g.AddVertex("a")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on self-loop")
		}
	}()
	g.AddEdge(a, a)
}

func TestFrozenGraphPanics(t *testing.T) {
	g, _ := diamond(t)
	g.Freeze()
	if !g.Frozen() {
		t.Fatalf("Frozen() = false after Freeze")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on mutation of frozen graph")
		}
	}()
	g.AddVertex("x")
}

func TestTagUntag(t *testing.T) {
	g := NewGraph("tags", 2)
	a := g.AddVertex("a")
	g.TagInput(a)
	g.TagInput(a) // idempotent
	if g.NumInputs() != 1 {
		t.Fatalf("NumInputs = %d, want 1", g.NumInputs())
	}
	g.UntagInput(a)
	g.UntagInput(a)
	if g.NumInputs() != 0 {
		t.Fatalf("NumInputs = %d, want 0", g.NumInputs())
	}
	g.TagOutput(a)
	if g.NumOutputs() != 1 || !g.IsOutput(a) {
		t.Fatalf("output tagging failed")
	}
	g.UntagOutput(a)
	if g.NumOutputs() != 0 {
		t.Fatalf("output untagging failed")
	}
}

func TestTopoOrder(t *testing.T) {
	g, v := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[VertexID]int)
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Succ(VertexID(u)) {
			if pos[VertexID(u)] >= pos[w] {
				t.Fatalf("topological order violated: %d before %d", w, u)
			}
		}
	}
	if pos[v[0]] != 0 || pos[v[3]] != 3 {
		t.Errorf("expected a first and d last, got order %v", order)
	}
}

func TestTopoOrderCyclic(t *testing.T) {
	g := NewGraph("cycle", 3)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatalf("expected cycle error")
	}
	if g.IsAcyclic() {
		t.Fatalf("IsAcyclic = true for cyclic graph")
	}
	if err := g.Validate(ValidateRBW); err == nil {
		t.Fatalf("Validate accepted a cyclic graph")
	}
}

func TestLevels(t *testing.T) {
	g, v := diamond(t)
	level, maxLevel, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if maxLevel != 2 {
		t.Fatalf("maxLevel = %d, want 2", maxLevel)
	}
	want := map[VertexID]int{v[0]: 0, v[1]: 1, v[2]: 1, v[3]: 2}
	for u, l := range want {
		if level[u] != l {
			t.Errorf("level[%d] = %d, want %d", u, level[u], l)
		}
	}
	if g.CriticalPathLength() != 3 {
		t.Errorf("CriticalPathLength = %d, want 3", g.CriticalPathLength())
	}
}

func TestValidate(t *testing.T) {
	g, _ := diamond(t)
	if err := g.Validate(ValidateRBW); err != nil {
		t.Errorf("RBW validate: %v", err)
	}
	if err := g.Validate(ValidateHongKung); err != nil {
		t.Errorf("HongKung validate: %v", err)
	}

	// Input with a predecessor is invalid in both modes.
	bad := NewGraph("bad", 2)
	a := bad.AddVertex("a")
	b := bad.AddInput("b")
	bad.AddEdge(a, b)
	if err := bad.Validate(ValidateRBW); err == nil {
		t.Errorf("expected error for input with predecessor")
	}

	// Source that is not an input: fine for RBW, invalid for Hong-Kung.
	g2 := NewGraph("untaggedsrc", 2)
	x := g2.AddVertex("x")
	y := g2.AddOutput("y")
	g2.AddEdge(x, y)
	if err := g2.Validate(ValidateRBW); err != nil {
		t.Errorf("RBW validate untagged source: %v", err)
	}
	if err := g2.Validate(ValidateHongKung); err == nil {
		t.Errorf("Hong-Kung validate accepted untagged source")
	}

	// Sink that is not an output: invalid for Hong-Kung.
	g3 := NewGraph("untaggedsink", 2)
	p := g3.AddInput("p")
	q := g3.AddVertex("q")
	g3.AddEdge(p, q)
	if err := g3.Validate(ValidateHongKung); err == nil {
		t.Errorf("Hong-Kung validate accepted untagged sink")
	}
}

func TestTagHongKung(t *testing.T) {
	g := NewGraph("hk", 3)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.TagHongKung()
	if !g.IsInput(a) || !g.IsOutput(c) || g.IsInput(b) || g.IsOutput(b) {
		t.Fatalf("TagHongKung tags wrong")
	}
	if err := g.Validate(ValidateHongKung); err != nil {
		t.Fatalf("Validate after TagHongKung: %v", err)
	}
}

func TestSourcesSinksVertices(t *testing.T) {
	g, v := diamond(t)
	if got := g.Sources(); len(got) != 1 || got[0] != v[0] {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != v[3] {
		t.Errorf("Sinks = %v", got)
	}
	if got := g.Vertices(); len(got) != 4 {
		t.Errorf("Vertices = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, v := diamond(t)
	c := g.Clone()
	c.AddVertex("extra")
	c.AddEdge(v[3], VertexID(4))
	c.UntagInput(v[0])
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.NumInputs() != 1 {
		t.Fatalf("mutating clone affected original: %v", g)
	}
	if c.NumVertices() != 5 || c.NumEdges() != 5 || c.NumInputs() != 0 {
		t.Fatalf("clone mutation lost: %v", c)
	}
}

func TestAddVerticesBulk(t *testing.T) {
	g := NewGraph("bulk", 0)
	first := g.AddVertices(10)
	if first != 0 || g.NumVertices() != 10 {
		t.Fatalf("AddVertices: first=%d n=%d", first, g.NumVertices())
	}
	second := g.AddVertices(5)
	if second != 10 || g.NumVertices() != 15 {
		t.Fatalf("AddVertices second: first=%d n=%d", second, g.NumVertices())
	}
}

func TestInOutMinSets(t *testing.T) {
	g, v := diamond(t)
	// S = {b, d}
	s := NewVertexSetOf(g.NumVertices(), v[1], v[3])
	in := In(g, s)
	// Predecessors outside S with a successor in S: a (pred of b), c (pred of d).
	if in.Len() != 2 || !in.Contains(v[0]) || !in.Contains(v[2]) {
		t.Errorf("In = %v", in.Elements())
	}
	out := Out(g, s)
	// d is an output; b has successor d inside S so b is not in Out.
	if out.Len() != 1 || !out.Contains(v[3]) {
		t.Errorf("Out = %v", out.Elements())
	}
	min := MinSet(g, s)
	// Min(S): vertices with all successors outside S: d (no successors).
	if min.Len() != 1 || !min.Contains(v[3]) {
		t.Errorf("Min = %v", min.Elements())
	}
}

func TestVertexSetOperations(t *testing.T) {
	s := NewVertexSet(8)
	if s.Len() != 0 || s.Universe() != 8 {
		t.Fatalf("empty set wrong")
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatalf("Add semantics wrong")
	}
	s.AddAll([]VertexID{1, 5})
	if s.Len() != 3 || !s.Contains(1) || !s.Contains(5) || s.Contains(2) {
		t.Fatalf("AddAll/Contains wrong: %v", s.Elements())
	}
	c := s.Clone()
	c.Remove(1)
	if s.Len() != 3 || c.Len() != 2 {
		t.Fatalf("Clone not independent")
	}
	if !s.Intersects(c) {
		t.Fatalf("Intersects false for overlapping sets")
	}
	comp := s.Complement()
	if comp.Len() != 5 || comp.Contains(3) {
		t.Fatalf("Complement wrong: %v", comp.Elements())
	}
	if s.Equal(c) {
		t.Fatalf("Equal true for different sets")
	}
	c.Add(1)
	if !s.Equal(c) {
		t.Fatalf("Equal false for identical sets")
	}
	u := NewVertexSet(8)
	u.Union(s)
	if !u.Equal(s) {
		t.Fatalf("Union failed")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Clear failed")
	}
	if !s.Remove(1) == false {
		t.Fatalf("Remove on absent should report false")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, v := diamond(t)
	s := NewVertexSetOf(g.NumVertices(), v[0], v[1], v[3])
	sub, m := InducedSubgraph(g, s, "sub")
	if sub.NumVertices() != 3 {
		t.Fatalf("sub |V| = %d, want 3", sub.NumVertices())
	}
	// Edges a->b and b->d survive; a->c and c->d are dropped.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub |E| = %d, want 2", sub.NumEdges())
	}
	if sub.NumInputs() != 1 || sub.NumOutputs() != 1 {
		t.Fatalf("sub tags wrong: %v", sub)
	}
	if m.FromParent[v[2]] != InvalidVertex {
		t.Fatalf("mapping should exclude c")
	}
	for subV, parent := range m.ToParent {
		if m.FromParent[parent] != VertexID(subV) {
			t.Fatalf("mapping not inverse at %d", subV)
		}
	}
}

func TestPartitionStrict(t *testing.T) {
	g, v := diamond(t)
	p1 := NewVertexSetOf(4, v[0], v[1])
	p2 := NewVertexSetOf(4, v[2], v[3])
	subs, err := PartitionStrict(g, []*VertexSet{p1, p2}, []string{"left", "right"})
	if err != nil {
		t.Fatalf("PartitionStrict: %v", err)
	}
	if len(subs) != 2 || subs[0].NumVertices() != 2 || subs[1].NumVertices() != 2 {
		t.Fatalf("partition sizes wrong")
	}
	// Overlapping parts must fail.
	p3 := NewVertexSetOf(4, v[1], v[2], v[3])
	if _, err := PartitionStrict(g, []*VertexSet{p1, p3}, nil); err == nil {
		t.Fatalf("expected error for overlapping parts")
	}
	// Non-covering parts must fail.
	if _, err := PartitionStrict(g, []*VertexSet{p1}, nil); err == nil {
		t.Fatalf("expected error for non-covering parts")
	}
	// Partition (panicking wrapper) should succeed on the valid split.
	subs2 := Partition(g, []*VertexSet{p1, p2}, nil)
	if len(subs2) != 2 {
		t.Fatalf("Partition returned %d parts", len(subs2))
	}
}

func TestDeleteInputsOutputs(t *testing.T) {
	g, _ := diamond(t)
	reduced, dI, dO := DeleteInputsOutputs(g)
	if dI != 1 || dO != 1 {
		t.Fatalf("dI=%d dO=%d, want 1,1", dI, dO)
	}
	if reduced.NumVertices() != 2 || reduced.NumEdges() != 0 {
		t.Fatalf("reduced graph wrong: %v", reduced)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, _ := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() ||
		back.NumInputs() != g.NumInputs() || back.NumOutputs() != g.NumOutputs() {
		t.Fatalf("round trip mismatch: %v vs %v", back, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		if back.Label(id) != g.Label(id) {
			t.Errorf("label mismatch at %d", v)
		}
		if len(back.Succ(id)) != len(g.Succ(id)) {
			t.Errorf("adjacency mismatch at %d", v)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		`{"vertices":2,"edges":[[0,5]],"inputs":[],"outputs":[]}`,
		`{"vertices":1,"edges":[],"inputs":[7],"outputs":[]}`,
		`{"vertices":1,"edges":[],"inputs":[],"outputs":[9]}`,
		`{"vertices":-1,"edges":[],"inputs":[],"outputs":[]}`,
		`not json`,
	}
	for _, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("expected error decoding %q", c)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, DOTOptions{RankLevels: true}); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "shape=box", "shape=doublecircle", "rank=same"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Truncation.
	buf.Reset()
	if err := g.WriteDOT(&buf, DOTOptions{MaxVertices: 2}); err != nil {
		t.Fatalf("WriteDOT truncated: %v", err)
	}
	if !strings.Contains(buf.String(), "truncated") {
		t.Errorf("expected truncation comment")
	}
}

func TestComputeStats(t *testing.T) {
	g, _ := diamond(t)
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 4 || s.Depth != 3 || s.MaxLevelSz != 2 ||
		s.Sources != 1 || s.Sinks != 1 || s.MaxInDeg != 2 || s.MaxOutDeg != 2 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatalf("empty stats string")
	}
}

func TestGraphString(t *testing.T) {
	g, _ := diamond(t)
	if !strings.Contains(g.String(), "diamond") {
		t.Errorf("String missing name: %s", g.String())
	}
}

// TestTopoOrderProperty checks, over randomly generated DAGs, that TopoOrder
// returns a permutation respecting all edges.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seedEdges []uint16, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		g := NewGraph("rand", n)
		g.AddVertices(n)
		// Interpret each seed value as an edge u->v with u<v to guarantee acyclicity.
		for _, s := range seedEdges {
			u := int(s) % n
			v := int(s>>8) % n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			g.AddEdge(VertexID(u), VertexID(v))
		}
		order, err := g.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, w := range g.Succ(VertexID(u)) {
				if pos[u] >= pos[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestJSONRoundTripProperty checks JSON round-tripping over random DAGs.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seedEdges []uint16, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		g := NewGraph("rand", n)
		g.AddVertices(n)
		for _, s := range seedEdges {
			u := int(s) % n
			v := int(s>>8) % n
			if u >= v {
				continue
			}
			g.AddEdge(VertexID(u), VertexID(v))
		}
		g.TagHongKung()
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() ||
			back.NumInputs() != g.NumInputs() || back.NumOutputs() != g.NumOutputs() {
			return false
		}
		for v := 0; v < n; v++ {
			id := VertexID(v)
			if back.IsInput(id) != g.IsInput(id) || back.IsOutput(id) != g.IsOutput(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := NewGraph("sort", 4)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddVertex("d")
	g.AddEdge(a, d)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.SortAdjacency()
	succ := g.Succ(a)
	for i := 1; i < len(succ); i++ {
		if succ[i-1] > succ[i] {
			t.Fatalf("successors not sorted: %v", succ)
		}
	}
	_ = d
}

func TestValidVertexAndPanics(t *testing.T) {
	g, _ := diamond(t)
	if g.ValidVertex(-1) || g.ValidVertex(99) || !g.ValidVertex(0) {
		t.Fatalf("ValidVertex wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range vertex")
		}
	}()
	g.Succ(99)
}

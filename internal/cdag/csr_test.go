package cdag

import (
	"math/rand"
	"testing"
)

// sliceGraph is a reference reimplementation of the seed's slice-of-slices
// adjacency: per-vertex append lists with a linear duplicate scan on insert.
// The equivalence tests below prove that the CSR core reproduces its
// observable behavior — adjacency content and order, degrees, edge counts and
// topological order — exactly, so every bound, witness and I/O statistic
// derived from traversal order is bit-identical across the representation
// change.
type sliceGraph struct {
	succ [][]VertexID
	pred [][]VertexID
	n    int
	ne   int
}

func newSliceGraph(n int) *sliceGraph {
	return &sliceGraph{succ: make([][]VertexID, n), pred: make([][]VertexID, n), n: n}
}

func (s *sliceGraph) addEdge(u, v VertexID) {
	for _, w := range s.succ[u] {
		if w == v {
			return
		}
	}
	s.succ[u] = append(s.succ[u], v)
	s.pred[v] = append(s.pred[v], u)
	s.ne++
}

// kahn reproduces the FIFO Kahn ordering of Graph.TopoOrder on the reference
// adjacency.
func (s *sliceGraph) kahn() []VertexID {
	indeg := make([]int, s.n)
	for v := 0; v < s.n; v++ {
		indeg[v] = len(s.pred[v])
	}
	queue := make([]VertexID, 0, s.n)
	for v := 0; v < s.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, s.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range s.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order
}

func equalIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSREquivalenceRandomDAGs drives the CSR graph and the reference
// slice-of-slices graph with identical randomized edge streams (including
// duplicate insertions) and checks that adjacency, degrees, edge counts and
// topological order agree exactly.
func TestCSREquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		g := NewGraph("csr", n)
		g.AddVertices(n)
		ref := newSliceGraph(n)
		edges := rng.Intn(4 * n)
		for e := 0; e < edges; e++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			// Insert in a shuffled direction order and occasionally duplicate,
			// to exercise dedup and order preservation.
			g.AddEdge(VertexID(u), VertexID(v))
			ref.addEdge(VertexID(u), VertexID(v))
			if rng.Intn(4) == 0 {
				g.AddEdge(VertexID(u), VertexID(v)) // duplicate, must be dropped
			}
		}
		if trial%2 == 0 {
			g.Freeze() // half the trials query through the frozen fast path
		}
		if g.NumEdges() != ref.ne {
			t.Fatalf("trial %d: NumEdges = %d, want %d", trial, g.NumEdges(), ref.ne)
		}
		for v := 0; v < n; v++ {
			id := VertexID(v)
			if !equalIDs(g.Succ(id), ref.succ[v]) {
				t.Fatalf("trial %d: Succ(%d) = %v, want %v", trial, v, g.Succ(id), ref.succ[v])
			}
			if !equalIDs(g.Pred(id), ref.pred[v]) {
				t.Fatalf("trial %d: Pred(%d) = %v, want %v", trial, v, g.Pred(id), ref.pred[v])
			}
			if g.OutDegree(id) != len(ref.succ[v]) || g.InDegree(id) != len(ref.pred[v]) {
				t.Fatalf("trial %d: degrees of %d disagree", trial, v)
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: TopoOrder: %v", trial, err)
		}
		if !equalIDs(order, ref.kahn()) {
			t.Fatalf("trial %d: topo order diverged from reference", trial)
		}
	}
}

// TestPredecessorCSREquivalenceRandomDAGs drives the same randomized
// generator set as TestCSREquivalenceRandomDAGs (random DAGs with duplicate
// insertions, half the trials frozen) and checks that the hoisted
// PredecessorCSR/SuccessorCSR rows are identical — content and order — to
// the per-call Pred/Succ slices and to the slice-of-slices reference, so the
// players' hoisted row reads are proven interchangeable with the facade.
func TestPredecessorCSREquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		g := NewGraph("predcsr", n)
		g.AddVertices(n)
		ref := newSliceGraph(n)
		edges := rng.Intn(4 * n)
		for e := 0; e < edges; e++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(VertexID(u), VertexID(v))
			ref.addEdge(VertexID(u), VertexID(v))
			if rng.Intn(4) == 0 {
				g.AddEdge(VertexID(u), VertexID(v)) // duplicate, must be dropped
			}
		}
		if trial%2 == 0 {
			g.Freeze()
		}
		predOff, predVal := g.PredecessorCSR()
		succOff, succVal := g.SuccessorCSR()
		if len(predOff) != n+1 || len(succOff) != n+1 {
			t.Fatalf("trial %d: offset lengths %d/%d, want %d", trial, len(predOff), len(succOff), n+1)
		}
		if predOff[n] != int64(g.NumEdges()) || succOff[n] != int64(g.NumEdges()) {
			t.Fatalf("trial %d: row totals %d/%d, want |E|=%d", trial, predOff[n], succOff[n], g.NumEdges())
		}
		for v := 0; v < n; v++ {
			id := VertexID(v)
			pRow := predVal[predOff[v]:predOff[v+1]]
			if !equalIDs(pRow, g.Pred(id)) || !equalIDs(pRow, ref.pred[v]) {
				t.Fatalf("trial %d: PredecessorCSR row %d = %v, Pred = %v, ref = %v",
					trial, v, pRow, g.Pred(id), ref.pred[v])
			}
			sRow := succVal[succOff[v]:succOff[v+1]]
			if !equalIDs(sRow, g.Succ(id)) || !equalIDs(sRow, ref.succ[v]) {
				t.Fatalf("trial %d: SuccessorCSR row %d = %v, Succ = %v, ref = %v",
					trial, v, sRow, g.Succ(id), ref.succ[v])
			}
		}
	}
}

// TestPredecessorCSRFirstInsertionOrderGolden pins the row-order contract on
// a hand-built graph: after dedup, each predecessor row lists its sources in
// the order their edges were first staged — not sorted, not source-major —
// and the rows survive a materialize→mutate→requery cycle unchanged.
func TestPredecessorCSRFirstInsertionOrderGolden(t *testing.T) {
	g := NewGraph("golden", 0)
	g.AddVertices(6)
	// Interleave sources so first-insertion order differs from both sorted
	// and source-major order, and stage duplicates that must be dropped.
	g.AddEdge(3, 5)
	g.AddEdge(0, 4)
	g.AddEdge(2, 5)
	g.AddEdge(3, 5) // duplicate
	g.AddEdge(1, 4)
	g.AddEdge(0, 5)
	g.AddEdge(2, 4)
	g.AddEdge(0, 4) // duplicate

	want := map[VertexID][]VertexID{
		4: {0, 1, 2},
		5: {3, 2, 0},
	}
	check := func(stage string) {
		predOff, predVal := g.PredecessorCSR()
		for v, exp := range want {
			got := predVal[predOff[v]:predOff[v+1]]
			if !equalIDs(got, exp) {
				t.Fatalf("%s: PredecessorCSR row %d = %v, want first-insertion order %v", stage, v, got, exp)
			}
		}
		if predOff[len(predOff)-1] != 6 {
			t.Fatalf("%s: total kept edges = %d, want 6 (duplicates dropped)", stage, predOff[len(predOff)-1])
		}
	}
	check("fresh")
	g.AddVertex("late") // reconstitutes and recompiles the staging buffer
	check("after remutation")
	g.Freeze()
	check("frozen")
}

// TestCSRMutateAfterMaterialize checks the staged → compiled → staged
// lifecycle: queries compile the CSR arrays, later mutations reconstitute the
// staging buffer, and the recompiled adjacency reflects both generations of
// edges in insertion order.
func TestCSRMutateAfterMaterialize(t *testing.T) {
	g := NewGraph("remat", 0)
	g.AddVertices(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	if got := g.Succ(0); !equalIDs(got, []VertexID{2, 1}) { // materializes
		t.Fatalf("Succ(0) = %v, want [2 1]", got)
	}
	g.AddEdge(0, 3) // reconstitutes the buffer from the CSR arrays
	g.AddEdge(0, 2) // duplicate of a pre-materialization edge
	if got := g.Succ(0); !equalIDs(got, []VertexID{2, 1, 3}) {
		t.Fatalf("after remutation Succ(0) = %v, want [2 1 3]", got)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Pred(2); !equalIDs(got, []VertexID{0}) {
		t.Fatalf("Pred(2) = %v, want [0]", got)
	}
}

// TestCSRReserveAfterMaterialize is a regression test: ReserveEdges on a
// compiled graph must reconstitute the released staging buffer before
// growing it, or the next mutation would recompile from only the new edges
// and silently drop everything already compiled.
func TestCSRReserveAfterMaterialize(t *testing.T) {
	g := NewGraph("reserve", 0)
	g.AddVertices(3)
	g.AddEdge(0, 1)
	g.Materialize()
	g.ReserveEdges(1)
	g.AddEdge(1, 2)
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 2) || g.NumEdges() != 2 {
		t.Fatalf("edges lost: 0->1=%v 1->2=%v |E|=%d", hasEdge(g, 0, 1), hasEdge(g, 1, 2), g.NumEdges())
	}
}

// TestCSRPredOrderSurvivesRemutation is a regression test: reconstituting
// the staging buffer from the CSR arrays must yield a sequence consistent
// with the predecessor-row order too, not just the successor rows — a plain
// source-major walk would flip Pred(5) below from [2 1] to [1 2] after a
// materialize→mutate→requery cycle.
func TestCSRPredOrderSurvivesRemutation(t *testing.T) {
	g := NewGraph("predorder", 0)
	g.AddVertices(6)
	g.AddEdge(2, 5)
	g.AddEdge(1, 5)
	if got := g.Pred(5); !equalIDs(got, []VertexID{2, 1}) { // materializes
		t.Fatalf("Pred(5) = %v, want [2 1]", got)
	}
	g.AddVertex("late") // reconstitutes the buffer
	if got := g.Pred(5); !equalIDs(got, []VertexID{2, 1}) {
		t.Fatalf("after remutation Pred(5) = %v, want [2 1]", got)
	}
}

// TestCSREquivalenceInterleavedCycles drives random materialize→mutate
// cycles against the reference graph: after every cycle both adjacency
// directions must still match in content and order.
func TestCSREquivalenceInterleavedCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(40)
		g := NewGraph("cycles", n)
		g.AddVertices(n)
		ref := newSliceGraph(n)
		for cycle := 0; cycle < 4; cycle++ {
			for e := 0; e < n; e++ {
				u := rng.Intn(n - 1)
				v := u + 1 + rng.Intn(n-u-1)
				g.AddEdge(VertexID(u), VertexID(v))
				ref.addEdge(VertexID(u), VertexID(v))
			}
			g.Materialize() // compile, releasing the staging buffer
			for v := 0; v < n; v++ {
				id := VertexID(v)
				if !equalIDs(g.Succ(id), ref.succ[v]) || !equalIDs(g.Pred(id), ref.pred[v]) {
					t.Fatalf("trial %d cycle %d: adjacency of %d diverged (succ %v vs %v, pred %v vs %v)",
						trial, cycle, v, g.Succ(id), ref.succ[v], g.Pred(id), ref.pred[v])
				}
			}
		}
	}
}

// TestCSRCloneCarriesStagedEdges checks that Clone is deep in both states:
// staged edges and compiled arrays survive independently.
func TestCSRCloneCarriesStagedEdges(t *testing.T) {
	g := NewGraph("clone", 0)
	g.AddVertices(3)
	g.AddEdge(0, 1) // staged, not yet compiled
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatalf("edges: orig %d (want 1), clone %d (want 2)", g.NumEdges(), c.NumEdges())
	}
	g.Materialize()
	c2 := g.Clone() // clone of a compiled graph
	c2.AddEdge(0, 2)
	if g.NumEdges() != 1 || c2.NumEdges() != 2 {
		t.Fatalf("post-materialize clone not independent")
	}
}

// TestAddVertexBytes checks the flat label staging path used by the
// generators.
func TestAddVertexBytes(t *testing.T) {
	g := NewGraph("bytes", 2)
	buf := []byte("mul[3,4]")
	v := g.AddVertexBytes(buf)
	buf = append(buf[:0], "other"...) // the graph must have copied the bytes
	w := g.AddInputBytes(buf)
	if g.Label(v) != "mul[3,4]" {
		t.Fatalf("Label(v) = %q, want mul[3,4]", g.Label(v))
	}
	if g.Label(w) != "other" || !g.IsInput(w) {
		t.Fatalf("AddInputBytes wrong: %q input=%v", g.Label(w), g.IsInput(w))
	}
}

// TestFrozenGraphAllowsTagRelabeling is a regression test: Freeze locks the
// structure, not the input/output tags — the tagging/untagging relabeling of
// Theorem 3 must keep working on generator-frozen graphs without a Clone.
func TestFrozenGraphAllowsTagRelabeling(t *testing.T) {
	g := NewGraph("tags", 0)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	g.AddEdge(a, b)
	g.Freeze()
	g.UntagInput(a)
	g.TagOutput(b)
	if g.NumInputs() != 0 || g.NumOutputs() != 1 || g.IsInput(a) || !g.IsOutput(b) {
		t.Fatalf("tag relabeling on frozen graph failed: |I|=%d |O|=%d", g.NumInputs(), g.NumOutputs())
	}
	g.TagHongKung() // sources back to inputs, sinks to outputs
	if !g.IsInput(a) {
		t.Fatalf("TagHongKung on frozen graph failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on structural mutation of frozen graph")
		}
	}()
	g.AddEdge(b, a)
}

// TestFreezeCompilesAndLocks checks that Freeze materializes and that
// ReserveEdges on a frozen graph panics like any other mutation.
func TestFreezeCompilesAndLocks(t *testing.T) {
	g := NewGraph("frozen", 0)
	g.AddVertices(2)
	g.AddEdge(0, 1)
	g.Freeze()
	if !g.Frozen() || g.NumEdges() != 1 {
		t.Fatalf("Freeze did not compile: frozen=%v edges=%d", g.Frozen(), g.NumEdges())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on ReserveEdges of frozen graph")
		}
	}()
	g.ReserveEdges(10)
}

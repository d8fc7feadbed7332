package graphalg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// scheduleGraph is one graph of the schedule-bound property tests.
type scheduleGraph struct {
	name string
	g    *cdag.Graph
}

// scheduleGraphs returns the generator graphs, one small instance of every
// catalog kind, and 200 random DAGs of 8 to 90 vertices, the odd ones with
// shuffled labels so that ID order is not a topological order.  Most hold
// more than the 32 candidates the seed pass takes, so their scans reach the
// bound and solve passes.
func scheduleGraphs(t *testing.T) []scheduleGraph {
	t.Helper()
	var graphs []scheduleGraph
	for name, g := range generatorGraphs(t) {
		graphs = append(graphs, scheduleGraph{name, g})
	}
	slices.SortFunc(graphs, func(a, b scheduleGraph) int { return strings.Compare(a.name, b.name) })
	rng := rand.New(rand.NewSource(2121))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(83)
		g := randomDAG(rng, n, n+rng.Intn(2*n))
		if trial%2 == 1 {
			g = relabel(g, rng.Perm(n))
		}
		graphs = append(graphs, scheduleGraph{fmt.Sprintf("random%d", trial), g})
	}
	return graphs
}

// relabel returns a copy of g whose vertex v is perm[v].
func relabel(g *cdag.Graph, perm []int) *cdag.Graph {
	n := g.NumVertices()
	h := cdag.NewGraph(g.Name(), n)
	h.AddVertices(n)
	sOff, sVal := g.SuccessorCSR()
	for v := 0; v < n; v++ {
		for _, w := range sVal[sOff[v]:sOff[v+1]] {
			h.AddEdge(cdag.VertexID(perm[v]), cdag.VertexID(perm[w]))
		}
	}
	return h
}

// postOrderReference is the recursive form of postOrder: from each root in
// ID order (a vertex whose row of rootOff is empty), finish each row entry's
// cone in CSR order, then the vertex.
func postOrderReference(rootOff, off []int64, val []cdag.VertexID) []cdag.VertexID {
	fired := make([]bool, len(rootOff)-1)
	var order []cdag.VertexID
	var fire func(v cdag.VertexID)
	fire = func(v cdag.VertexID) {
		fired[v] = true
		for _, p := range val[off[v]:off[v+1]] {
			if !fired[p] {
				fire(p)
			}
		}
		order = append(order, v)
	}
	for v := range len(rootOff) - 1 {
		if rootOff[v+1] == rootOff[v] {
			fire(cdag.VertexID(v))
		}
	}
	return order
}

// demandOrderReference is the recursive form of the demand order: from each
// sink in ID order, fire each predecessor's cone in CSR order, then the
// vertex.
func demandOrderReference(g *cdag.Graph) []cdag.VertexID {
	sOff, _, pOff, pVal := g.AdjacencyCSR()
	return postOrderReference(sOff, pOff, pVal)
}

// TestDemandOrderIsTopological checks the demand-driven schedule on every
// property graph: it fires every vertex exactly once, each after all of its
// predecessors, and in the order of the recursive post-order.  The scratch
// it reuses starts out holding garbage, as the Kahn sweep leaves it.
func TestDemandOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sg := range scheduleGraphs(t) {
		g, n := sg.g, sg.g.NumVertices()
		order := make([]cdag.VertexID, n)
		cursor := make([]int32, n)
		for v := range n {
			order[v] = cdag.VertexID(rng.Intn(n))
			cursor[v] = int32(rng.Intn(5) - 2)
		}
		sOff, sVal, pOff, pVal := g.AdjacencyCSR()
		postOrder(sOff, pOff, pVal, order, cursor)
		pos := make([]int, n)
		for v := range pos {
			pos[v] = -1
		}
		for k, v := range order {
			if pos[v] >= 0 {
				t.Fatalf("%s: vertex %d fires at steps %d and %d", sg.name, v, pos[v], k)
			}
			pos[v] = k
		}
		for v := range n {
			for _, w := range sVal[sOff[v]:sOff[v+1]] {
				if pos[v] >= pos[w] {
					t.Fatalf("%s: vertex %d fires at step %d, its predecessor %d at step %d", sg.name, w, pos[w], v, pos[v])
				}
			}
		}
		if want := demandOrderReference(g); !slices.Equal(order, want) {
			t.Fatalf("%s: demand order %v, recursive post-order %v", sg.name, order, want)
		}
	}
}

// TestScheduleWavefrontsChain pins the Section 3.3 schedule wavefront on a
// chain: every vertex's wavefront is the vertex alone.
func TestScheduleWavefrontsChain(t *testing.T) {
	g := gen.Chain(5)
	wf := make([]int32, 5)
	firedWavefronts(g, g.MustTopoOrder(), make([]int32, 5), wf)
	for v, w := range wf {
		if w != 1 {
			t.Errorf("wavefront at %d = %d, want 1", v, w)
		}
	}
}

// TestScheduleWavefrontsDiamond pins the schedule wavefronts of the diamond
// a -> {b, c} -> d fired in the order a, b, c, d.
func TestScheduleWavefrontsDiamond(t *testing.T) {
	g := cdag.NewGraph("diamond", 4)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddOutput("d")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	wf := make([]int32, 4)
	firedWavefronts(g, []cdag.VertexID{a, b, c, d}, make([]int32, 4), wf)
	// After firing b: a (successor c unfired) and b (successor d unfired)
	// are both live -> wavefront 2.  After firing c: b and c live -> 2.
	want := []int32{1, 2, 2, 1}
	if !slices.Equal(wf, want) {
		t.Errorf("wavefronts = %v, want %v", wf, want)
	}
}

// TestScheduleBoundsAboveMinWavefront checks that the wavefront of each of
// the two schedules at every vertex is at least the min-cut bound there, the
// property that makes the schedule bound a valid key, and that
// scheduleWavefrontUB takes the smaller of the two per candidate, on a
// shuffled candidate list with repeats.
func TestScheduleBoundsAboveMinWavefront(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sg := range scheduleGraphs(t) {
		g, n := sg.g, sg.g.NumVertices()
		kahn := g.MustTopoOrder()
		demand := make([]cdag.VertexID, n)
		scratch := make([]int32, n)
		sOff, _, pOff, pVal := g.AdjacencyCSR()
		postOrder(sOff, pOff, pVal, demand, scratch)
		wfKahn, wfDemand := make([]int32, n), make([]int32, n)
		firedWavefronts(g, kahn, scratch, wfKahn)
		firedWavefronts(g, demand, scratch, wfDemand)
		cs := NewCutSolver()
		for v := range n {
			x := cdag.VertexID(v)
			w := int32(cs.MinWavefrontAt(g, x))
			if wfKahn[x] < w || wfDemand[x] < w {
				t.Fatalf("%s vertex %d: schedule wavefronts %d (Kahn) and %d (demand), min cut %d",
					sg.name, x, wfKahn[x], wfDemand[x], w)
			}
		}
		cands := shuffledCandidates(rng, g)
		for _, both := range []bool{false, true} {
			ub, _, _ := scheduleWavefrontUB(g, cands, both)
			for i, x := range cands {
				want := wfKahn[x]
				if both {
					want = min(want, wfDemand[x])
				}
				if ub[i] != want {
					t.Fatalf("%s candidate %d (vertex %d, demand %v): bound %d, want %d", sg.name, i, x, both, ub[i], want)
				}
			}
		}
	}
}

// shuffledCandidates returns every vertex of g in random order, with a few
// vertices listed twice.
func shuffledCandidates(rng *rand.Rand, g *cdag.Graph) []cdag.VertexID {
	cands := g.Vertices()
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for range 3 {
		cands = append(cands, cands[rng.Intn(len(cands))])
	}
	return cands
}

// bypassGraph returns a graph whose source intervals pass the exactness
// check although it is not a multitree, and whose w^max, 3, is not 1 as on
// every multitree.  Sink 6 ranks the sources 0–5 in demand order.  Vertex 9
// reads sources 0–2 and feeds sink 11, and sources 1 and 2 reach sink 11
// again through the bypasses 7 and 8, so 9's cut is {9, 7, 8}.  Sink 11's
// predecessors have intervals [0, 2], [1, 1], [2, 2] and [5, 5], 6 ranks
// wide together, as wide as their hull: the overlaps balance the gap of
// sources 3 and 4.  A 4-ary reduction tree over 256 inputs holds the 32
// vertices of largest degree, all of value 1, so the seed pass leaves the
// incumbent at 1 and the bound pass keys 7, 8 and 9.  Vertex 9's descendant
// cone is the smaller, and its late count stops at the threshold, 2, below
// its value: kept as a key, the count would let 7 (value 2, key 2, a lower
// index) raise the incumbent past it.
func bypassGraph() *cdag.Graph {
	g := cdag.NewGraph("bypass", 0)
	g.AddVertices(12)
	for _, e := range [][2]cdag.VertexID{
		{0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 6}, {5, 6},
		{1, 7}, {2, 8}, {0, 9}, {1, 9}, {2, 9}, {5, 10},
		{9, 11}, {7, 11}, {8, 11}, {10, 11},
	} {
		g.AddEdge(e[0], e[1])
	}
	level := make([]cdag.VertexID, 256)
	for i := range level {
		level[i] = g.AddVertices(1)
	}
	for len(level) > 1 {
		next := make([]cdag.VertexID, len(level)/4)
		for i := range next {
			next[i] = g.AddVertices(1)
			for _, u := range level[4*i : 4*i+4] {
				g.AddEdge(u, next[i])
			}
		}
		level = next
	}
	return g
}

// TestWMaxMatchesOracleShuffled runs the three-pass scan on every property
// graph over a shuffled candidate list with repeats, at 1, 2 and 4 workers,
// and requires the bound and the witness of the serial full-network scan.
// Shuffling makes candidate index and vertex ID disagree, so a pass that
// confused them, or broke a tie by vertex instead of by index, would move the
// witness.  FFT(64) and BinomialTree(6) join the property graphs: their
// source intervals prune most candidates on the late bound, and the smaller
// instances among the generator graphs leave few candidates past the seeds.
// FFT(64) keys its candidates on sink intervals too; a copy with one more
// edge, from input 0 to a stage-2 vertex it already reaches, has a second
// path, fails the exactness check, and is scanned without them.  The bypass
// graph passes the check, and is scanned in ID order as well as shuffled.
func TestWMaxMatchesOracleShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	passes := 0
	twoPaths := gen.FFT(64).Clone()
	twoPaths.AddEdge(0, 128) // 0 → 64 → 128 is the first path
	if _, _, sinks := scheduleWavefrontUB(twoPaths, twoPaths.Vertices(), true); sinks.lo != nil {
		t.Fatal("FFT(64) with a second path passes the exactness check")
	}
	bypass := bypassGraph()
	if _, _, sinks := scheduleWavefrontUB(bypass, bypass.Vertices(), true); sinks.lo == nil {
		t.Fatal("the bypass graph fails the exactness check")
	}
	if w, at := maxMinWavefrontLowerBoundSerial(bypass, bypass.Vertices()); w != 3 || at != 9 {
		t.Fatalf("bypass graph: serial scan (%d, %d), want (3, 9)", w, at)
	}
	for _, conc := range []int{1, 2, 4} {
		if w, at := wmax(t, bypass, nil, WMaxOptions{Concurrency: conc}); w != 3 || at != 9 {
			t.Fatalf("bypass graph (conc=%d): (bound, witness) = (%d, %d), want (3, 9)", conc, w, at)
		}
	}
	graphs := append(scheduleGraphs(t),
		scheduleGraph{"fft64", gen.FFT(64)},
		scheduleGraph{"fft64+edge", twoPaths},
		scheduleGraph{"bypass", bypass},
		scheduleGraph{"binomial6", gen.BinomialTree(6)})
	for _, sg := range graphs {
		cands := shuffledCandidates(rng, sg.g)
		if len(cands) > seedSample {
			passes++
		}
		wantW, wantV := maxMinWavefrontLowerBoundSerial(sg.g, cands)
		for _, conc := range []int{1, 2, 4} {
			gotW, gotV := wmax(t, sg.g, cands, WMaxOptions{Concurrency: conc})
			if gotW != wantW || gotV != wantV {
				t.Fatalf("%s (conc=%d): (bound, witness) = (%d, %d), serial (%d, %d)",
					sg.name, conc, gotW, gotV, wantW, wantV)
			}
		}
	}
	if passes < 100 {
		t.Fatalf("weak coverage: only %d scans reach the bound and solve passes", passes)
	}
}

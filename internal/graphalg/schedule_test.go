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

// demandOrderReference is the recursive form of demandOrder: from each sink
// in ID order, fire each predecessor's cone in CSR order, then the vertex.
func demandOrderReference(g *cdag.Graph) []cdag.VertexID {
	sOff, _, pOff, pVal := g.AdjacencyCSR()
	fired := make([]bool, g.NumVertices())
	var order []cdag.VertexID
	var fire func(v cdag.VertexID)
	fire = func(v cdag.VertexID) {
		fired[v] = true
		for _, p := range pVal[pOff[v]:pOff[v+1]] {
			if !fired[p] {
				fire(p)
			}
		}
		order = append(order, v)
	}
	for v := range g.NumVertices() {
		if sOff[v+1] == sOff[v] {
			fire(cdag.VertexID(v))
		}
	}
	return order
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
		demandOrder(g, order, cursor)
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
		sOff, sVal := g.SuccessorCSR()
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
		demandOrder(g, demand, scratch)
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
			ub, _ := scheduleWavefrontUB(g, cands, both)
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

// TestWMaxMatchesOracleShuffled runs the three-pass scan on every property
// graph over a shuffled candidate list with repeats, at 1, 2 and 4 workers,
// and requires the bound and the witness of the serial full-network scan.
// Shuffling makes candidate index and vertex ID disagree, so a pass that
// confused them, or broke a tie by vertex instead of by index, would move the
// witness.  FFT(64) and BinomialTree(6) join the property graphs: their
// source intervals prune most candidates on the late bound, and the smaller
// instances among the generator graphs leave few candidates past the seeds.
func TestWMaxMatchesOracleShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	passes := 0
	graphs := append(scheduleGraphs(t),
		scheduleGraph{"fft64", gen.FFT(64)},
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

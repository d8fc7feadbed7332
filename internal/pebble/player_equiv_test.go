package pebble

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// randomDAG builds a random CDAG on n vertices whose edges all run from a
// smaller to a larger vertex ID.  About a sixth of the vertices are inputs;
// one to three of them are dangling (no successors, not outputs), so the RBW
// player has inputs left to touch after the schedule ends.  Other vertices
// take up to four predecessors, a few take none (computed sources), and most
// sinks are outputs.  Interior vertices are outputs at a rate drawn per graph
// (a tenth, a third or all), so that in some games fast memory is still full
// of outputs when the input touches begin and the first touch evicts.
func randomDAG(rng *rand.Rand, n int) *cdag.Graph {
	g := cdag.NewGraph(fmt.Sprintf("random%d", n), n)
	g.AddVertices(n)
	dangling := make([]bool, n)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		v := cdag.VertexID(rng.Intn(n))
		g.TagInput(v)
		dangling[v] = true
	}
	var feeds []cdag.VertexID // vertices later vertices may consume
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		switch {
		case dangling[v]:
			continue
		case len(feeds) == 0 || rng.Intn(6) == 0:
			g.TagInput(id)
		case rng.Intn(20) > 0:
			for d := 1 + rng.Intn(4); d > 0; d-- {
				g.AddEdge(feeds[rng.Intn(len(feeds))], id)
			}
		}
		feeds = append(feeds, id)
	}
	interior := []int{10, 3, 1}[rng.Intn(3)]
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		if g.IsInput(id) {
			continue
		}
		if (g.OutDegree(id) == 0 && rng.Intn(5) > 0) || rng.Intn(interior) == 0 {
			g.TagOutput(id)
		}
	}
	return g
}

// randomTopo returns a uniformly drawn ready vertex at every step of Kahn's
// algorithm over g's non-input vertices: a random topological schedule.
func randomTopo(rng *rand.Rand, g *cdag.Graph) []cdag.VertexID {
	n := g.NumVertices()
	pending := make([]int, n)
	var ready []cdag.VertexID
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		if g.IsInput(id) {
			continue
		}
		for _, p := range g.Pred(id) {
			if !g.IsInput(p) {
				pending[v]++
			}
		}
		if pending[v] == 0 {
			ready = append(ready, id)
		}
	}
	order := make([]cdag.VertexID, 0, g.NumOperations())
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range g.Succ(v) {
			if pending[w]--; pending[w] == 0 && !g.IsInput(w) {
				ready = append(ready, w)
			}
		}
	}
	return order
}

// maxOpInDegree returns the largest in-degree of a non-input vertex: the
// player needs S of at least this plus one.
func maxOpInDegree(g *cdag.Graph) int {
	m := 0
	for _, v := range g.Vertices() {
		if !g.IsInput(v) && g.InDegree(v) > m {
			m = g.InDegree(v)
		}
	}
	return m
}

// touchEvictions counts the evictions in a trace's RBW input touches: the
// deletes, after the last compute and after a final output store, of a
// vertex the previous move did not just load.  Each touch is a load and a
// delete of the same input; the deletes that drop dead values after the last
// compute come before the final stores.
func touchEvictions(trace []Move) int {
	last := 0
	for i, m := range trace {
		if m.Kind == Compute {
			last = i
		}
	}
	count, stored := 0, false
	for i := last + 1; i < len(trace); i++ {
		switch m := trace[i]; {
		case m.Kind == Store:
			stored = true
		case m.Kind == Delete && stored && trace[i-1] != Move{Load, m.V}:
			count++
		}
	}
	return count
}

// TestPlayScheduleMatchesReference checks that the heap player returns the
// same Result as the scan player it replaced, move traces included, on
// random DAGs and every generator family, under random topological orders,
// both game variants, both eviction policies and S from barely feasible to
// roomy.  Some of the RBW games must evict during the input touches, the one
// point where values nothing needs stay resident and the player re-keys its
// heap.
func TestPlayScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	graphs := []*cdag.Graph{
		gen.Chain(9),
		gen.IndependentChains(3, 5),
		gen.ReductionTree(12),
		gen.DotProduct(7),
		gen.Saxpy(6),
		gen.OuterProduct(5),
		gen.MatMul(4).Graph,
		gen.Composite(4).Graph,
		gen.FFT(16),
		gen.BinomialTree(4),
		gen.Pyramid(5),
		gen.Jacobi(1, 12, 4, gen.StencilStar).Graph,
		gen.Jacobi(2, 5, 2, gen.StencilBox).Graph,
		gen.HeatEquation1D(10, 3).Graph,
		gen.CG(1, 5, 2).Graph,
		gen.GMRES(1, 4, 2).Graph,
	}
	randomGraphs := 100
	if testing.Short() {
		randomGraphs = 25
	}
	for k := 0; k < randomGraphs; k++ {
		graphs = append(graphs, randomDAG(rng, 10+rng.Intn(121)))
	}
	ctx := context.Background()
	plays, touchEvicting := 0, 0
	for _, g := range graphs {
		orders := [][]cdag.VertexID{nonInputTopo(g), randomTopo(rng, g)}
		maxIn := maxOpInDegree(g)
		for oi, order := range orders {
			for _, variant := range []Variant{RBW, HongKung} {
				for _, policy := range []EvictionPolicy{Belady, LRU} {
					for _, slack := range []int{1, 2, 5, 20} {
						s := maxIn + slack
						want, errRef := playScheduleReference(ctx, g, variant, s, order, policy, true)
						got, err := PlayScheduleCtx(ctx, g, variant, s, order, policy, true)
						name := fmt.Sprintf("%s order %d %v %v S=%d", g.Name(), oi, variant, policy, s)
						if errRef != nil || err != nil {
							t.Fatalf("%s: reference err = %v, heap err = %v", name, errRef, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: results diverge\nreference: %v\nheap:      %v\nfirst differing move: %s",
								name, want, got, firstMoveDiff(want.Trace, got.Trace))
						}
						plays++
						if touchEvictions(want.Trace) > 0 {
							touchEvicting++
						}
					}
				}
			}
		}
	}
	t.Logf("%d plays identical, %d evicting during the input touches", plays, touchEvicting)
	if touchEvicting == 0 {
		t.Errorf("no play evicted during the RBW input touches")
	}
}

// firstMoveDiff describes the first position where two traces differ.
func firstMoveDiff(a, b []Move) string {
	for i := range a {
		if i >= len(b) {
			return fmt.Sprintf("#%d: %v vs end of trace", i, a[i])
		}
		if a[i] != b[i] {
			return fmt.Sprintf("#%d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(b) > len(a) {
		return fmt.Sprintf("#%d: end of trace vs %v", len(a), b[len(a)])
	}
	return "none"
}

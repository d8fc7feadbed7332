package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

func TestTopologicalValid(t *testing.T) {
	for _, g := range []*cdag.Graph{
		gen.Chain(10),
		gen.MatMul(4).Graph,
		gen.Jacobi(2, 5, 3, gen.StencilBox).Graph,
		gen.CG(2, 3, 2).Graph,
	} {
		order := Topological(g)
		if _, err := Check(g, order, math.MaxInt); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if len(order) != g.NumOperations() {
			t.Errorf("%s: schedule length %d != %d operations", g.Name(), len(order), g.NumOperations())
		}
	}
}

func TestMatMulBlockedValid(t *testing.T) {
	r := gen.MatMul(6)
	for _, block := range []int{1, 2, 3, 4, 6, 10} {
		order := MatMulBlocked(r, block)
		if _, err := Check(r.Graph, order, math.MaxInt); err != nil {
			t.Errorf("block=%d: %v", block, err)
		}
	}
}

func TestMatMulBlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for block=0")
		}
	}()
	MatMulBlocked(gen.MatMul(2), 0)
}

func TestStencilSkewedValid(t *testing.T) {
	cases := []struct {
		dim, n, steps, tile int
		kind                gen.StencilKind
	}{
		{1, 16, 5, 4, gen.StencilStar},
		{1, 16, 20, 4, gen.StencilStar}, // more steps than cells per tile
		{1, 7, 3, 3, gen.StencilBox},
		{2, 6, 4, 2, gen.StencilBox},
		{2, 5, 3, 8, gen.StencilStar}, // tile larger than the grid
		{3, 4, 2, 2, gen.StencilBox},
	}
	for _, c := range cases {
		jr := gen.Jacobi(c.dim, c.n, c.steps, c.kind)
		order := StencilSkewed(jr, c.tile)
		if _, err := Check(jr.Graph, order, math.MaxInt); err != nil {
			t.Errorf("dim=%d n=%d T=%d tile=%d %s: %v", c.dim, c.n, c.steps, c.tile, c.kind, err)
		}
		if len(order) != jr.Graph.NumOperations() {
			t.Errorf("dim=%d: schedule length %d != %d", c.dim, len(order), jr.Graph.NumOperations())
		}
	}
}

func TestStencilSkewedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for tile=0")
		}
	}()
	StencilSkewed(gen.Jacobi(1, 8, 2, gen.StencilStar), 0)
}

func TestBlockPartitionGrid(t *testing.T) {
	jr := gen.Jacobi(2, 8, 3, gen.StencilStar)
	owner := BlockPartitionGrid(jr, 4)
	if len(owner) != jr.Graph.NumVertices() {
		t.Fatalf("owner length %d != |V| %d", len(owner), jr.Graph.NumVertices())
	}
	counts := make([]int, 4)
	for _, o := range owner {
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	for n, c := range counts {
		if c == 0 {
			t.Errorf("node %d owns nothing", n)
		}
	}
	// Owner-compute: a cell keeps its owner across time steps.
	for c := 0; c < jr.Grid.Points(); c++ {
		o0 := owner[jr.Layer[0][c]]
		for tt := 1; tt <= jr.Steps; tt++ {
			if owner[jr.Layer[tt][c]] != o0 {
				t.Fatalf("cell %d changes owner over time", c)
			}
		}
	}
}

func TestBlockPartitionGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero nodes")
		}
	}()
	BlockPartitionGrid(gen.Jacobi(1, 8, 2, gen.StencilStar), 0)
}

// TestCheckErrors pins the first fault Check reports for each kind of bad
// schedule, in the wording the players pass on.  The entries are checked
// first; then, vertex by vertex in ID order, a missing vertex, an operand
// scheduled later and a capacity fault, so a capacity fault of vertex 1
// hides an order fault of vertex 3.
func TestCheckErrors(t *testing.T) {
	chain := gen.Chain(4) // 0(in) 1 2 3(out)
	dot := gen.DotProduct(4)
	cases := []struct {
		g        *cdag.Graph
		order    []cdag.VertexID
		capacity int
		want     string
	}{
		{chain, []cdag.VertexID{1, 2, 3}, math.MaxInt, ""},
		{chain, []cdag.VertexID{1, 2, 3}, 2, ""},
		{chain, []cdag.VertexID{0, 1, 2, 3}, math.MaxInt, "input vertex 0 scheduled for compute"},
		{chain, []cdag.VertexID{1, 1, 2, 3}, math.MaxInt, "vertex 1 scheduled twice"},
		{chain, []cdag.VertexID{1, 2}, math.MaxInt, "vertex 3 missing from schedule"},
		{chain, []cdag.VertexID{2, 1, 3}, math.MaxInt, "vertex 2 scheduled before its predecessor 1"},
		{chain, []cdag.VertexID{1, 2, 99}, math.MaxInt, "vertex 99 out of range"},
		{chain, []cdag.VertexID{1, 2, 3, 99}, math.MaxInt, "vertex 99 out of range"},
		{chain, []cdag.VertexID{-1, 1, 2, 3}, math.MaxInt, "vertex -1 out of range"},
		{chain, []cdag.VertexID{1, 3, 2}, 1, "capacity 1 too small: vertex 1 has in-degree 1"},
		{chain, []cdag.VertexID{1, 3, 2}, 2, "vertex 3 scheduled before its predecessor 2"},
		{dot, Topological(dot), 2, "capacity 2 too small: vertex 2 has in-degree 2"},
	}
	for i, c := range cases {
		uses, err := Check(c.g, c.order, c.capacity)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("case %d: Check(%v, capacity %d) = %q, want %q", i, c.order, c.capacity, got, c.want)
		}
		if (uses == nil) != (err != nil) {
			t.Errorf("case %d: uses %v with error %v", i, uses, err)
		}
	}
	_, err := Check(dot, Topological(dot), 2)
	var ce *CapacityError
	if !errors.As(err, &ce) || ce.Vertex != 2 || ce.InDegree != 2 || ce.Capacity != 2 {
		t.Errorf("capacity fault = %#v, want vertex 2, in-degree 2, capacity 2", err)
	}
}

// randomDAG builds a random CDAG on n vertices whose edges run from smaller
// to larger IDs: about a sixth of the vertices are inputs, the rest take up
// to four predecessors, and the sinks are outputs.
func randomDAG(rng *rand.Rand, n int) *cdag.Graph {
	g := cdag.NewGraph(fmt.Sprintf("random%d", n), n)
	g.AddVertices(n)
	g.TagInput(0)
	for v := 1; v < n; v++ {
		if rng.Intn(6) == 0 {
			g.TagInput(cdag.VertexID(v))
			continue
		}
		for d := rng.Intn(5); d > 0; d-- {
			g.AddEdge(cdag.VertexID(rng.Intn(v)), cdag.VertexID(v))
		}
	}
	for _, v := range g.Vertices() {
		if !g.IsInput(v) && g.OutDegree(v) == 0 {
			g.TagOutput(v)
		}
	}
	return g
}

// randomTopo draws a uniformly random ready vertex at every step of Kahn's
// algorithm over g's non-input vertices.
func randomTopo(rng *rand.Rand, g *cdag.Graph) []cdag.VertexID {
	pending := make([]int, g.NumVertices())
	var ready, order []cdag.VertexID
	for _, v := range g.Vertices() {
		if g.IsInput(v) {
			continue
		}
		for _, p := range g.Pred(v) {
			if !g.IsInput(p) {
				pending[v]++
			}
		}
		if pending[v] == 0 {
			ready = append(ready, v)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready = slices.Delete(ready, k, k+1)
		order = append(order, v)
		for _, w := range g.Succ(v) {
			if pending[w]--; pending[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return order
}

// TestUsesMatchesScan checks Next, Rest and Last against a linear scan of the
// schedule on random DAGs under random topological orders, asking about
// every vertex at positions that never decrease, in random steps.
func TestUsesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for k := 0; k < 200; k++ {
		g := randomDAG(rng, 2+rng.Intn(60))
		order := randomTopo(rng, g)
		uses, err := Check(g, order, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: random topological order rejected: %v", g.Name(), err)
		}
		// scan lists the positions after the given one whose steps read v.
		scan := func(v cdag.VertexID, after int) []int32 {
			var rest []int32
			for i := after + 1; i < len(order); i++ {
				if slices.Contains(g.Pred(order[i]), v) {
					rest = append(rest, int32(i))
				}
			}
			return rest
		}
		for _, v := range g.Vertices() {
			all := scan(v, -1)
			if last := uses.Last(v); (len(all) == 0 && last != -1) || (len(all) > 0 && last != int(all[len(all)-1])) {
				t.Fatalf("%s: Last(%d) = %d, uses at %v", g.Name(), v, last, all)
			}
		}
		for after := -1; after <= len(order); after += rng.Intn(3) {
			for _, v := range g.Vertices() {
				want := scan(v, after)
				if rng.Intn(2) == 0 {
					if got := uses.Rest(v, after); !slices.Equal(got, want) {
						t.Fatalf("%s: Rest(%d, %d) = %v, want %v", g.Name(), v, after, got, want)
					}
					continue
				}
				next := Never
				if len(want) > 0 {
					next = int(want[0])
				}
				if got := uses.Next(v, after); got != next {
					t.Fatalf("%s: Next(%d, %d) = %d, want %d", g.Name(), v, after, got, next)
				}
			}
		}
	}
}

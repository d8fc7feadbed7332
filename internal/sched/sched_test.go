package sched

import (
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
		if err := Validate(g, order); err != nil {
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
		if err := Validate(r.Graph, order); err != nil {
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
		if err := Validate(jr.Graph, order); err != nil {
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

func TestValidateErrors(t *testing.T) {
	g := gen.Chain(4) // 0(in) 1 2 3(out)
	if err := Validate(g, []cdag.VertexID{1, 2, 3}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := [][]cdag.VertexID{
		{0, 1, 2, 3},  // input scheduled
		{1, 1, 2, 3},  // duplicate
		{1, 2},        // missing
		{2, 1, 3},     // out of order
		{1, 2, 99},    // out of range
		{1, 2, 3, 99}, // extra out of range
	}
	for i, order := range bad {
		if err := Validate(g, order); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

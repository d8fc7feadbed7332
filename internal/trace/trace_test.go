package trace

import (
	"context"
	"math"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/pebble"
	"cdagio/internal/sched"
)

func TestTracerBasicOps(t *testing.T) {
	tr := New("basic")
	a := tr.Input("a", 3)
	b := tr.Input("b", 4)
	sum := tr.Add(a, b)
	diff := tr.Sub(a, b)
	prod := tr.Mul(a, b)
	quot := tr.Div(a, b)
	fma := tr.MulAdd(a, b, sum)
	tr.OutputAll([]Value{sum, diff, prod, quot, fma})

	if sum.Float() != 7 || diff.Float() != -1 || prod.Float() != 12 || quot.Float() != 0.75 || fma.Float() != 19 {
		t.Errorf("traced arithmetic wrong: %v %v %v %v %v",
			sum.Float(), diff.Float(), prod.Float(), quot.Float(), fma.Float())
	}
	g := tr.Graph()
	if err := g.Validate(cdag.ValidateRBW); err != nil {
		t.Fatalf("traced graph invalid: %v", err)
	}
	if g.NumInputs() != 2 || g.NumOutputs() != 5 || g.NumVertices() != 7 {
		t.Errorf("traced graph shape wrong: %v", g)
	}
	if g.InDegree(fma.Vertex()) != 3 {
		t.Errorf("fma in-degree = %d, want 3", g.InDegree(fma.Vertex()))
	}
	// A constant is a source but not an input.
	c := tr.Constant("two", 2)
	if g.IsInput(c.Vertex()) {
		t.Errorf("constant tagged as input")
	}
}

func TestTracedDotMatchesGenerator(t *testing.T) {
	// The traced dot product must have the same shape as the generator's CDAG
	// and produce the right numerical result.
	n := 8
	xs := make([]float64, n)
	ys := make([]float64, n)
	want := 0.0
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = float64(2 * i)
		want += xs[i] * ys[i]
	}
	tr := New("dot")
	xv := tr.InputVector("x", xs)
	yv := tr.InputVector("y", ys)
	d := tr.Dot(xv, yv)
	tr.Output(d)
	if math.Abs(d.Float()-want) > 1e-12 {
		t.Errorf("traced dot = %v, want %v", d.Float(), want)
	}
	traced := tr.Graph()
	generated := gen.DotProduct(n)
	if traced.NumVertices() != generated.NumVertices() ||
		traced.NumEdges() != generated.NumEdges() ||
		traced.NumInputs() != generated.NumInputs() ||
		traced.NumOutputs() != generated.NumOutputs() {
		t.Errorf("traced dot CDAG (%v) differs from generated (%v)", traced, generated)
	}
}

func TestTracedAxpyAndMatVec(t *testing.T) {
	tr := New("blas")
	alpha := tr.Input("alpha", 2)
	x := tr.InputVector("x", []float64{1, 2, 3})
	y := tr.InputVector("y", []float64{10, 20, 30})
	out := tr.Axpy(alpha, x, y)
	for i, want := range []float64{12, 24, 36} {
		if out[i].Float() != want {
			t.Errorf("axpy[%d] = %v, want %v", i, out[i].Float(), want)
		}
	}
	// 2x2 matrix-vector product.
	a := [][]Value{
		tr.InputVector("a0", []float64{1, 2}),
		tr.InputVector("a1", []float64{3, 4}),
	}
	v := tr.InputVector("v", []float64{5, 6})
	mv := tr.MatVec(a, v)
	if mv[0].Float() != 17 || mv[1].Float() != 39 {
		t.Errorf("matvec = %v, %v; want 17, 39", mv[0].Float(), mv[1].Float())
	}
	tr.OutputAll(mv)
	if err := tr.Graph().Validate(cdag.ValidateRBW); err != nil {
		t.Fatalf("traced graph invalid: %v", err)
	}
}

func TestTracerPanics(t *testing.T) {
	tr := New("panics")
	a := tr.InputVector("a", []float64{1, 2})
	b := tr.InputVector("b", []float64{1})
	for name, f := range map[string]func(){
		"dot":    func() { tr.Dot(a, b) },
		"axpy":   func() { tr.Axpy(tr.Input("s", 1), a, b) },
		"matvec": func() { tr.MatVec([][]Value{a}, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestTracedGraphIsPebbleable(t *testing.T) {
	// A traced computation is a normal CDAG: the RBW schedule player can run
	// it and report its I/O.
	tr := New("pebbleable")
	x := tr.InputVector("x", []float64{1, 2, 3, 4})
	y := tr.InputVector("y", []float64{4, 3, 2, 1})
	d := tr.Dot(x, y)
	tr.Output(d)
	g := tr.Graph()
	res, err := pebble.PlayScheduleCtx(context.Background(), g, pebble.RBW, 4, sched.Topological(g), pebble.Belady, false)
	if err != nil {
		t.Fatalf("PlayScheduleCtx: %v", err)
	}
	if res.IO() < tr.Graph().NumInputs()+tr.Graph().NumOutputs() {
		t.Errorf("I/O %d below compulsory minimum", res.IO())
	}
	// Empty dot product degenerates to a constant.
	tr2 := New("empty")
	z := tr2.Dot(nil, nil)
	if z.Float() != 0 {
		t.Errorf("empty dot = %v", z.Float())
	}
}

package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Norm2(); math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := w.NormInf(); got != 6 {
		t.Errorf("NormInf = %v, want 6", got)
	}
	u := v.Clone().Axpy(2, w)
	want := Vector{9, 12, 15}
	if !u.Equalish(want, 0) {
		t.Errorf("Axpy = %v, want %v", u, want)
	}
	if got := v.AddScaled(-1, w); !got.Equalish(Vector{-3, -3, -3}, 0) {
		t.Errorf("AddScaled = %v", got)
	}
	if got := w.Sub(v); !got.Equalish(Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	s := v.Clone().Scale(10)
	if !s.Equalish(Vector{10, 20, 30}, 0) {
		t.Errorf("Scale = %v", s)
	}
	z := NewVector(3).Fill(7)
	if !z.Equalish(Vector{7, 7, 7}, 0) {
		t.Errorf("Fill = %v", z)
	}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 || !c.Equalish(Vector{9, 2, 3}, 0) {
		t.Errorf("Clone not independent: %v %v", v, c)
	}
	if v.Equalish(Vector{1, 2}, 0) {
		t.Errorf("Equalish accepted different lengths")
	}
}

func TestVectorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dot":  func() { Vector{1}.Dot(Vector{1, 2}) },
		"axpy": func() { Vector{1}.Axpy(1, Vector{1, 2}) },
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

func TestDenseOps(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(0, 2, 3)
	a.Set(1, 0, 4)
	a.Set(1, 1, 5)
	a.Set(1, 2, 6)
	x := Vector{1, 1, 1}
	y := a.MulVec(x)
	if !y.Equalish(Vector{6, 15}, 1e-12) {
		t.Errorf("MulVec = %v", y)
	}
	if a.At(1, 2) != 6 {
		t.Errorf("At(1, 2) = %v, want 6", a.At(1, 2))
	}
	if !Identity(3).MulVec(x).Equalish(x, 0) {
		t.Errorf("I·x != x")
	}
}

func TestDensePanics(t *testing.T) {
	a := NewDense(2, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected MulVec dimension panic")
			}
		}()
		a.MulVec(Vector{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected NewDense negative panic")
			}
		}()
		NewDense(-1, 2)
	}()
}

func TestCSRBuildAndMulVec(t *testing.T) {
	b := NewCSRBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	b.Add(1, 2, -1)
	b.Add(2, 1, -1)
	b.Add(2, 2, 2)
	b.Add(2, 2, 1) // duplicate: summed to 3
	m := b.Build()
	if len(m.Values) != 7 {
		t.Fatalf("stored non-zeros = %d, want 7", len(m.Values))
	}
	if m.At(2, 2) != 3 || m.At(0, 2) != 0 {
		t.Errorf("At wrong: %v %v", m.At(2, 2), m.At(0, 2))
	}
	y := m.MulVec(Vector{1, 1, 1})
	if !y.Equalish(Vector{1, 0, 2}, 1e-12) {
		t.Errorf("MulVec = %v", y)
	}
	if m.At(1, 2) != -1 {
		t.Errorf("At(1, 2) = %v, want -1", m.At(1, 2))
	}
	if !m.IsSymmetric(1e-12) {
		t.Errorf("matrix should be symmetric (only diagonal differs from Laplacian)")
	}
	// An off-diagonal perturbation breaks symmetry.
	b2 := NewCSRBuilder(2, 2)
	b2.Add(0, 1, 1)
	if b2.Build().IsSymmetric(1e-12) {
		t.Errorf("asymmetric matrix reported symmetric")
	}
	// Non-square matrices are never symmetric.
	b3 := NewCSRBuilder(2, 3)
	if b3.Build().IsSymmetric(1e-12) {
		t.Errorf("non-square matrix reported symmetric")
	}
	cols, vals := m.Row(1)
	if len(cols) != 3 || len(vals) != 3 {
		t.Errorf("Row(1) wrong: %v %v", cols, vals)
	}
}

func TestCSRBuilderPanics(t *testing.T) {
	b := NewCSRBuilder(2, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("expected out-of-range panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestTridiagonal(t *testing.T) {
	a := 0.5
	n := 8
	lhs := HeatEquationMatrix(n, a)
	rhsM := HeatEquationRHSMatrix(n, a)
	if lhs.Diag != 1.5 || lhs.Off != -0.25 {
		t.Errorf("heat matrix coefficients wrong: %+v", lhs)
	}
	if rhsM.Diag != 0.5 || rhsM.Off != 0.25 {
		t.Errorf("heat rhs coefficients wrong: %+v", rhsM)
	}
	u := NewVector(n)
	for i := range u {
		u[i] = math.Sin(float64(i+1) / float64(n+1) * math.Pi)
	}
	// Solve lhs·x = rhs and verify the residual.
	rhs := rhsM.MulVec(u)
	x := lhs.Solve(rhs)
	back := lhs.MulVec(x)
	if !back.Equalish(rhs, 1e-10) {
		t.Errorf("Thomas solve residual too large: %v vs %v", back, rhs)
	}
}

func TestTridiagonalPanics(t *testing.T) {
	tr := Tridiagonal{N: 3, Diag: 2, Off: -1}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected MulVec panic")
			}
		}()
		tr.MulVec(Vector{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected Solve panic")
			}
		}()
		tr.Solve(Vector{1})
	}()
}

func TestGridIndexing(t *testing.T) {
	g := NewGrid(3, 4)
	if g.Points() != 64 {
		t.Fatalf("Points = %d", g.Points())
	}
	for idx := 0; idx < g.Points(); idx++ {
		if got := g.Index(g.Coords(idx)); got != idx {
			t.Fatalf("round trip failed at %d -> %v -> %d", idx, g.Coords(idx), got)
		}
	}
	// Corner has d neighbors; interior has 2d.
	corner := g.Index([]int{0, 0, 0})
	if got := len(g.Neighbors(corner)); got != 3 {
		t.Errorf("corner neighbors = %d, want 3", got)
	}
	interior := g.Index([]int{1, 1, 1})
	if got := len(g.Neighbors(interior)); got != 6 {
		t.Errorf("interior neighbors = %d, want 6", got)
	}
}

func TestGridPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected NewGrid panic")
			}
		}()
		NewGrid(0, 5)
	}()
	g := NewGrid(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected Index arity panic")
			}
		}()
		g.Index([]int{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected Index range panic")
			}
		}()
		g.Index([]int{1, 5})
	}()
}

func TestGridLaplacian(t *testing.T) {
	g := NewGrid(2, 3)
	lap := g.Laplacian()
	if lap.Rows != 9 || lap.Cols != 9 {
		t.Fatalf("Laplacian shape %dx%d", lap.Rows, lap.Cols)
	}
	if !lap.IsSymmetric(1e-12) {
		t.Errorf("Laplacian not symmetric")
	}
	// Diagonal is 2d = 4; the constant vector maps to the boundary defect.
	if lap.At(4, 4) != 4 {
		t.Errorf("diagonal = %v, want 4", lap.At(4, 4))
	}
	// Row sums: interior rows sum to 0, boundary rows are positive.
	y := lap.MulVec(NewVector(9).Fill(1))
	if y[4] != 0 {
		t.Errorf("interior row sum = %v, want 0", y[4])
	}
	if y[0] <= 0 {
		t.Errorf("corner row sum = %v, want > 0", y[0])
	}
}

// Property: dot product is symmetric and norm is non-negative, and
// ‖u+v‖ ≤ ‖u‖+‖v‖ (triangle inequality) for random vectors.
func TestVectorProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		u, v := Vector(a[:n]), Vector(b[:n])
		for _, x := range append(u.Clone(), v...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological floats
			}
		}
		if math.Abs(u.Dot(v)-v.Dot(u)) > 1e-6*(1+math.Abs(u.Dot(v))) {
			return false
		}
		if u.Norm2() < 0 {
			return false
		}
		sum := u.AddScaled(1, v)
		return sum.Norm2() <= u.Norm2()+v.Norm2()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR·x agrees with Dense·x for random sparse matrices.
func TestCSRDenseAgreementProperty(t *testing.T) {
	f := func(entries []uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		b := NewCSRBuilder(n, n)
		d := NewDense(n, n)
		for _, e := range entries {
			r := int(e) % n
			c := int(e>>8) % n
			v := float64(int8(e>>16)) / 16.0
			b.Add(r, c, v)
			d.Set(r, c, d.At(r, c)+v)
		}
		m := b.Build()
		x := NewVector(n)
		for i := range x {
			x[i] = float64(i + 1)
		}
		return m.MulVec(x).Equalish(d.MulVec(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package solvers

import (
	"errors"
	"math"
	"testing"

	"cdagio/internal/linalg"
)

// poissonProblem builds A·u = f on a d-dimensional grid Laplacian with a
// known random-ish right-hand side.
func poissonProblem(dim, n int) (linalg.Grid, *linalg.CSR, linalg.Vector) {
	grid := linalg.NewGrid(dim, n)
	a := grid.Laplacian()
	f := linalg.NewVector(grid.Points())
	for i := range f {
		f[i] = math.Sin(float64(i + 1)) // deterministic, nonzero
	}
	return grid, a, f
}

func TestCGSolvesPoisson(t *testing.T) {
	_, a, f := poissonProblem(2, 10)
	x, stats, err := CG(CSROperator{a}, f, CGOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatalf("CG: %v (stats %+v)", err, stats)
	}
	if !stats.Converged || stats.Iterations == 0 {
		t.Fatalf("CG did not converge: %+v", stats)
	}
	res := f.Sub(a.MulVec(x)).Norm2()
	if res > 1e-7 {
		t.Errorf("CG residual %g too large", res)
	}
	if stats.Flops <= 0 {
		t.Errorf("CG flop count not recorded")
	}
}

func TestCGTridiagonal(t *testing.T) {
	tri := linalg.HeatEquationMatrix(50, 0.5)
	b := linalg.NewVector(50).Fill(1)
	x, stats, err := CG(TridiagonalOperator{tri}, b, CGOptions{})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !stats.Converged {
		t.Fatalf("CG did not converge")
	}
	if res := b.Sub(tri.MulVec(x)).Norm2(); res > 1e-7 {
		t.Errorf("residual %g too large", res)
	}
}

func TestCGErrors(t *testing.T) {
	_, a, _ := poissonProblem(1, 5)
	if _, _, err := CG(CSROperator{a}, linalg.NewVector(3), CGOptions{}); err == nil {
		t.Errorf("expected dimension error")
	}
	// Too few iterations to converge.
	_, _, err := CG(CSROperator{a}, linalg.NewVector(5).Fill(1), CGOptions{MaxIterations: 1, Tolerance: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("expected ErrNotConverged, got %v", err)
	}
}

func TestGMRESSolvesNonSymmetric(t *testing.T) {
	// Build a non-symmetric diagonally dominant matrix.
	n := 40
	b := linalg.NewCSRBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.Add(i, i+1, -1.5)
		}
		if i > 0 {
			b.Add(i, i-1, -0.5)
		}
	}
	a := b.Build()
	if a.IsSymmetric(1e-12) {
		t.Fatalf("test matrix unexpectedly symmetric")
	}
	rhs := linalg.NewVector(n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i))
	}
	x, stats, err := GMRES(CSROperator{a}, rhs, GMRESOptions{Tolerance: 1e-10, Restart: 20})
	if err != nil {
		t.Fatalf("GMRES: %v (stats %+v)", err, stats)
	}
	res := rhs.Sub(a.MulVec(x)).Norm2()
	if res > 1e-7 {
		t.Errorf("GMRES residual %g too large", res)
	}
	if stats.Iterations == 0 || stats.Flops == 0 {
		t.Errorf("GMRES stats not recorded: %+v", stats)
	}
}

func TestGMRESSolvesPoisson(t *testing.T) {
	_, a, f := poissonProblem(2, 8)
	x, stats, err := GMRES(CSROperator{a}, f, GMRESOptions{Tolerance: 1e-9, Restart: 30, MaxOuter: 50})
	if err != nil {
		t.Fatalf("GMRES: %v (stats %+v)", err, stats)
	}
	if res := f.Sub(a.MulVec(x)).Norm2(); res > 1e-6 {
		t.Errorf("residual %g too large", res)
	}
}

func TestGMRESErrors(t *testing.T) {
	_, a, _ := poissonProblem(1, 5)
	if _, _, err := GMRES(CSROperator{a}, linalg.NewVector(3), GMRESOptions{}); err == nil {
		t.Errorf("expected dimension error")
	}
	_, _, err := GMRES(CSROperator{a}, linalg.NewVector(5).Fill(1), GMRESOptions{Restart: 1, MaxOuter: 1, Tolerance: 1e-15})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("expected ErrNotConverged, got %v", err)
	}
}

func TestJacobiReducesResidual(t *testing.T) {
	grid, a, f := poissonProblem(2, 12)
	u0 := linalg.NewVector(grid.Points())
	residual := func(u linalg.Vector) float64 { return f.Sub(a.MulVec(u)).Norm2() }
	u5, s5, err := JacobiPoisson(grid, f, u0, JacobiOptions{Steps: 5})
	if err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	u50, s50, err := JacobiPoisson(grid, f, u0, JacobiOptions{Steps: 50})
	if err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	if residual(u50) >= residual(u5) {
		t.Errorf("more Jacobi sweeps should reduce the residual: %g vs %g", residual(u50), residual(u5))
	}
	if residual(u5) >= residual(u0) {
		t.Errorf("Jacobi sweeps should reduce the residual below the initial %g", residual(u0))
	}
	if s5.Flops >= s50.Flops {
		t.Errorf("flop counts inconsistent: %d vs %d", s5.Flops, s50.Flops)
	}
}

func TestJacobiErrors(t *testing.T) {
	grid := linalg.NewGrid(1, 4)
	f := linalg.NewVector(4)
	if _, _, err := JacobiPoisson(grid, f, linalg.NewVector(3), JacobiOptions{Steps: 1}); err == nil {
		t.Errorf("expected dimension error")
	}
	if _, _, err := JacobiPoisson(grid, f, f.Clone(), JacobiOptions{Steps: 0}); err == nil {
		t.Errorf("expected step-count error")
	}
}

func TestHeatEquation1D(t *testing.T) {
	n := 64
	u0 := linalg.NewVector(n)
	for i := range u0 {
		u0[i] = math.Sin(math.Pi * float64(i+1) / float64(n+1))
	}
	u, stats, err := HeatEquation1D(u0, 0.4, 50)
	if err != nil {
		t.Fatalf("HeatEquation1D: %v", err)
	}
	if stats.Iterations != 50 || stats.Flops <= 0 {
		t.Errorf("stats wrong: %+v", stats)
	}
	// Diffusion with zero boundaries decays the temperature everywhere and
	// keeps it non-negative (up to numerical noise).
	for i := range u {
		if u[i] > u0[i]+1e-9 || u[i] < -1e-9 {
			t.Fatalf("heat profile not decaying at %d: %g -> %g", i, u0[i], u[i])
		}
	}
	// Symmetry of the initial condition is preserved.
	for i := 0; i < n/2; i++ {
		if math.Abs(u[i]-u[n-1-i]) > 1e-9 {
			t.Fatalf("heat profile lost symmetry at %d", i)
		}
	}
	// Error paths.
	if _, _, err := HeatEquation1D(linalg.NewVector(1), 0.4, 5); err == nil {
		t.Errorf("expected size error")
	}
	if _, _, err := HeatEquation1D(u0, 0.4, 0); err == nil {
		t.Errorf("expected step error")
	}
	if _, _, err := HeatEquation1D(u0, -1, 5); err == nil {
		t.Errorf("expected alpha error")
	}
}

func TestCGAndGMRESAgree(t *testing.T) {
	// On a symmetric positive-definite system both solvers find the same
	// solution.
	_, a, f := poissonProblem(2, 6)
	xc, _, err := CG(CSROperator{a}, f, CGOptions{Tolerance: 1e-11})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	xg, _, err := GMRES(CSROperator{a}, f, GMRESOptions{Tolerance: 1e-11, Restart: 36, MaxOuter: 20})
	if err != nil {
		t.Fatalf("GMRES: %v", err)
	}
	if !xc.Equalish(xg, 1e-6) {
		t.Errorf("CG and GMRES disagree")
	}
}

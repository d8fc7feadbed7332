// Package solvers implements the numerical algorithms whose CDAGs the paper
// analyzes — Conjugate Gradient (Figure 3), GMRES with modified Gram–Schmidt
// (Figure 4), Jacobi relaxation (Section 5.4) and the 1-D heat equation
// time-stepper of Section 5.1 — together with dense matrix multiplication.
//
// The solvers operate on the structures of package linalg and count their
// floating-point operations, so examples and benchmarks can relate measured
// work to the operation counts used in the balance analysis.
package solvers

import (
	"errors"
	"fmt"
	"math"

	"cdagio/internal/linalg"
)

// Stats reports what a solver run did.
type Stats struct {
	// Iterations is the number of outer iterations executed.
	Iterations int
	// Residual is the final residual norm ‖b − A·x‖₂ (or the update norm for
	// stationary methods).
	Residual float64
	// Flops is the number of floating-point operations performed.
	Flops int64
	// Converged reports whether the tolerance was reached before the
	// iteration limit.
	Converged bool
}

// ErrNotConverged is returned when an iterative solver hits its iteration
// limit before reaching the requested tolerance.
var ErrNotConverged = errors.New("solvers: iteration limit reached before convergence")

// Operator is a linear operator y = A·x; both CSR and tridiagonal matrices
// satisfy it, as do matrix-free grid stencils.
type Operator interface {
	MulVec(x linalg.Vector) linalg.Vector
	Dim() int
}

// CSROperator adapts a CSR matrix to the Operator interface.
type CSROperator struct{ M *linalg.CSR }

// MulVec applies the matrix.
func (o CSROperator) MulVec(x linalg.Vector) linalg.Vector { return o.M.MulVec(x) }

// Dim returns the number of rows.
func (o CSROperator) Dim() int { return o.M.Rows }

// TridiagonalOperator adapts a tridiagonal matrix to the Operator interface.
type TridiagonalOperator struct{ M linalg.Tridiagonal }

// MulVec applies the matrix.
func (o TridiagonalOperator) MulVec(x linalg.Vector) linalg.Vector { return o.M.MulVec(x) }

// Dim returns the matrix dimension.
func (o TridiagonalOperator) Dim() int { return o.M.N }

// CGOptions configures the Conjugate Gradient solver.
type CGOptions struct {
	// Tolerance is the convergence threshold on ‖r‖₂.  Zero selects 1e-10.
	Tolerance float64
	// MaxIterations caps the outer loop.  Zero selects 10·dim.
	MaxIterations int
}

// CG solves A·x = b for symmetric positive-definite A with the Conjugate
// Gradient method of Figure 3.  It returns the solution, run statistics and
// ErrNotConverged if the iteration limit was reached.
func CG(a Operator, b linalg.Vector, opts CGOptions) (linalg.Vector, Stats, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solvers: CG dimension mismatch %d vs %d", n, len(b))
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	var flops int64
	x := linalg.NewVector(n)
	r := b.Clone() // r = b - A·x with x = 0
	p := r.Clone()
	rr := r.Dot(r)
	flops += int64(2 * n)
	stats := Stats{}
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr) <= tol {
			stats.Converged = true
			break
		}
		v := a.MulVec(p)
		pv := p.Dot(v)
		flops += int64(4 * n) // SpMV counted separately below; dot here
		if pv == 0 {
			return x, stats, fmt.Errorf("solvers: CG breakdown, <p, Ap> = 0 at iteration %d", it)
		}
		alpha := rr / pv
		x.Axpy(alpha, p)
		r.Axpy(-alpha, v)
		rrNew := r.Dot(r)
		flops += int64(6 * n)
		gamma := rrNew / rr
		// p = r + gamma·p
		for i := range p {
			p[i] = r[i] + gamma*p[i]
		}
		flops += int64(2 * n)
		rr = rrNew
		stats.Iterations++
	}
	if math.Sqrt(rr) <= tol {
		stats.Converged = true
	}
	stats.Residual = math.Sqrt(rr)
	stats.Flops = flops
	if !stats.Converged {
		return x, stats, ErrNotConverged
	}
	return x, stats, nil
}

// GMRESOptions configures the GMRES solver.
type GMRESOptions struct {
	// Tolerance is the convergence threshold on the residual norm.
	// Zero selects 1e-10.
	Tolerance float64
	// Restart is the Krylov subspace dimension m.  Zero selects min(dim, 50).
	Restart int
	// MaxOuter caps the number of restart cycles.  Zero selects 20.
	MaxOuter int
}

// GMRES solves A·x = b for a general (possibly non-symmetric) matrix with the
// restarted GMRES method of Figure 4 (modified Gram–Schmidt with Givens
// rotations).
func GMRES(a Operator, b linalg.Vector, opts GMRESOptions) (linalg.Vector, Stats, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solvers: GMRES dimension mismatch %d vs %d", n, len(b))
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-10
	}
	m := opts.Restart
	if m <= 0 {
		m = 50
	}
	if m > n {
		m = n
	}
	maxOuter := opts.MaxOuter
	if maxOuter <= 0 {
		maxOuter = 20
	}
	var flops int64
	x := linalg.NewVector(n)
	stats := Stats{}
	for outer := 0; outer < maxOuter; outer++ {
		r := b.Sub(a.MulVec(x))
		flops += int64(2 * n)
		beta := r.Norm2()
		flops += int64(2 * n)
		stats.Residual = beta
		if beta <= tol {
			stats.Converged = true
			stats.Flops = flops
			return x, stats, nil
		}
		// Arnoldi with modified Gram-Schmidt.
		v := make([]linalg.Vector, m+1)
		v[0] = r.Clone().Scale(1 / beta)
		h := linalg.NewDense(m+1, m)
		cs := linalg.NewVector(m)
		sn := linalg.NewVector(m)
		g := linalg.NewVector(m + 1)
		g[0] = beta
		k := 0
		for ; k < m; k++ {
			stats.Iterations++
			w := a.MulVec(v[k])
			for j := 0; j <= k; j++ {
				hjk := w.Dot(v[j])
				h.Set(j, k, hjk)
				w.Axpy(-hjk, v[j])
				flops += int64(4 * n)
			}
			hk1k := w.Norm2()
			flops += int64(2 * n)
			h.Set(k+1, k, hk1k)
			// Apply previous Givens rotations to the new column.
			for j := 0; j < k; j++ {
				t1 := cs[j]*h.At(j, k) + sn[j]*h.At(j+1, k)
				t2 := -sn[j]*h.At(j, k) + cs[j]*h.At(j+1, k)
				h.Set(j, k, t1)
				h.Set(j+1, k, t2)
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h.At(k, k), hk1k)
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h.At(k, k) / denom
				sn[k] = hk1k / denom
			}
			h.Set(k, k, cs[k]*h.At(k, k)+sn[k]*hk1k)
			h.Set(k+1, k, 0)
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			stats.Residual = math.Abs(g[k+1])
			if hk1k == 0 || stats.Residual <= tol {
				k++
				break
			}
			v[k+1] = w.Scale(1 / hk1k)
		}
		// Solve the k×k upper-triangular system H·y = g.
		y := linalg.NewVector(k)
		for i := k - 1; i >= 0; i-- {
			sum := g[i]
			for j := i + 1; j < k; j++ {
				sum -= h.At(i, j) * y[j]
			}
			y[i] = sum / h.At(i, i)
		}
		for j := 0; j < k; j++ {
			x.Axpy(y[j], v[j])
			flops += int64(2 * n)
		}
		if stats.Residual <= tol {
			stats.Converged = true
			stats.Flops = flops
			return x, stats, nil
		}
	}
	stats.Flops = flops
	return x, stats, ErrNotConverged
}

// JacobiOptions configures the Jacobi relaxation sweep.
type JacobiOptions struct {
	// Steps is the number of sweeps to perform.
	Steps int
	// Weight is the relaxation weight (0 selects 0.8, a common damped value).
	Weight float64
}

// JacobiPoisson performs weighted-Jacobi relaxation sweeps for the Poisson
// problem A·u = f on a d-dimensional grid Laplacian, starting from u0, and
// returns the relaxed vector plus statistics.  This is the iterative kernel
// whose CDAG Theorem 10 analyzes.
func JacobiPoisson(grid linalg.Grid, f, u0 linalg.Vector, opts JacobiOptions) (linalg.Vector, Stats, error) {
	np := grid.Points()
	if len(f) != np || len(u0) != np {
		return nil, Stats{}, fmt.Errorf("solvers: Jacobi dimension mismatch: grid %d, f %d, u0 %d", np, len(f), len(u0))
	}
	if opts.Steps < 1 {
		return nil, Stats{}, fmt.Errorf("solvers: Jacobi needs at least one step")
	}
	w := opts.Weight
	if w <= 0 {
		w = 0.8
	}
	diag := float64(2 * grid.Dim)
	u := u0.Clone()
	next := linalg.NewVector(np)
	var flops int64
	var lastUpdate float64
	for s := 0; s < opts.Steps; s++ {
		lastUpdate = 0
		for i := 0; i < np; i++ {
			sum := f[i]
			for _, j := range grid.Neighbors(i) {
				sum += u[j]
				flops++
			}
			val := (1-w)*u[i] + w*sum/diag
			flops += 4
			if d := math.Abs(val - u[i]); d > lastUpdate {
				lastUpdate = d
			}
			next[i] = val
		}
		u, next = next, u
	}
	return u, Stats{Iterations: opts.Steps, Residual: lastUpdate, Flops: flops, Converged: true}, nil
}

// HeatEquation1D advances the 1-D heat equation of Section 5.1 on an n-point
// grid for the given number of time steps using the Crank–Nicolson scheme
// (Equation 11): at each step a tridiagonal system is solved with the Thomas
// algorithm.  It returns the final temperature profile.
func HeatEquation1D(u0 linalg.Vector, alpha float64, steps int) (linalg.Vector, Stats, error) {
	n := len(u0)
	if n < 2 {
		return nil, Stats{}, fmt.Errorf("solvers: heat equation needs at least 2 grid points")
	}
	if steps < 1 {
		return nil, Stats{}, fmt.Errorf("solvers: heat equation needs at least one step")
	}
	if alpha <= 0 {
		return nil, Stats{}, fmt.Errorf("solvers: diffusion parameter must be positive")
	}
	lhs := linalg.HeatEquationMatrix(n, alpha)
	rhs := linalg.HeatEquationRHSMatrix(n, alpha)
	u := u0.Clone()
	var flops int64
	for s := 0; s < steps; s++ {
		b := rhs.MulVec(u)
		u = lhs.Solve(b)
		flops += int64(5*n) + int64(8*n)
	}
	return u, Stats{Iterations: steps, Flops: flops, Converged: true}, nil
}

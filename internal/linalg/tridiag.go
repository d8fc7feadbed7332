package linalg

import "fmt"

// Tridiagonal represents the tridiagonal coefficient matrix of the
// discretized 1-D heat equation (Equation 11 of the paper): constant
// sub/super-diagonal value Off and diagonal value Diag.
type Tridiagonal struct {
	N    int
	Diag float64
	Off  float64
}

// HeatEquationMatrix returns the implicit (left-hand side) tridiagonal matrix
// of the Crank–Nicolson discretization used in Section 5.1, with a = k/h².
func HeatEquationMatrix(n int, a float64) Tridiagonal {
	return Tridiagonal{N: n, Diag: 1 + a, Off: -a / 2}
}

// HeatEquationRHSMatrix returns the explicit (right-hand side) tridiagonal
// matrix of the same discretization.
func HeatEquationRHSMatrix(n int, a float64) Tridiagonal {
	return Tridiagonal{N: n, Diag: 1 - a, Off: a / 2}
}

// MulVec returns T·x.
func (t Tridiagonal) MulVec(x Vector) Vector {
	if len(x) != t.N {
		panic(fmt.Sprintf("linalg: tridiagonal MulVec dimension mismatch %d vs %d", t.N, len(x)))
	}
	y := NewVector(t.N)
	for i := 0; i < t.N; i++ {
		s := t.Diag * x[i]
		if i > 0 {
			s += t.Off * x[i-1]
		}
		if i+1 < t.N {
			s += t.Off * x[i+1]
		}
		y[i] = s
	}
	return y
}

// Solve solves T·x = rhs with the Thomas algorithm and returns x.
func (t Tridiagonal) Solve(rhs Vector) Vector {
	if len(rhs) != t.N {
		panic(fmt.Sprintf("linalg: tridiagonal Solve dimension mismatch %d vs %d", t.N, len(rhs)))
	}
	n := t.N
	cp := NewVector(n) // modified super-diagonal
	dp := NewVector(n) // modified rhs
	cp[0] = t.Off / t.Diag
	dp[0] = rhs[0] / t.Diag
	for i := 1; i < n; i++ {
		denom := t.Diag - t.Off*cp[i-1]
		if i+1 < n {
			cp[i] = t.Off / denom
		}
		dp[i] = (rhs[i] - t.Off*dp[i-1]) / denom
	}
	x := NewVector(n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x
}

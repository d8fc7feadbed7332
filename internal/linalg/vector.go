package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Fill sets every element to x and returns v.
func (v Vector) Fill(x float64) Vector {
	for i := range v {
		v[i] = x
	}
	return v
}

// Dot returns the inner product ⟨v, w⟩.  It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute element.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes v ← v + alpha·w and returns v.  It panics on length mismatch.
func (v Vector) Axpy(alpha float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// Scale computes v ← alpha·v and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// AddScaled returns a new vector equal to v + alpha·w.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	out := v.Clone()
	return out.Axpy(alpha, w)
}

// Sub returns a new vector equal to v − w.
func (v Vector) Sub(w Vector) Vector {
	return v.AddScaled(-1, w)
}

// Equalish reports whether v and w agree element-wise within tol.
func (v Vector) Equalish(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

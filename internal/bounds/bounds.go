// Package bounds collects the data-movement bounds the paper derives: the
// decomposition theorem (Theorem 2), the parallel conversion theorems
// (vertical and horizontal I/O, Theorems 5–7), and the closed-form bounds for
// the algorithms analyzed in Section 5 (matrix multiplication, CG, GMRES,
// Jacobi stencils) plus the classical kernels used as cross-checks.
//
// Every bound is reported as a Bound value carrying the number, its
// direction (lower or upper), the technique that produced it and the
// asymptotic regime it assumes, so reports and benchmarks can print
// meaningful provenance next to each figure.
package bounds

import (
	"fmt"
	"math"
)

// Kind distinguishes lower bounds from upper bounds.
type Kind int

const (
	// Lower marks a lower bound on data movement.
	Lower Kind = iota
	// Upper marks an upper bound (the cost of an explicit schedule).
	Upper
)

// String returns "lower" or "upper".
func (k Kind) String() string {
	if k == Upper {
		return "upper"
	}
	return "lower"
}

// Bound is one data-movement bound together with its provenance.
type Bound struct {
	// Value is the bound in words (values moved).
	Value float64
	// Kind says whether Value bounds the data movement from below or above.
	Kind Kind
	// Technique names the result that produced the bound
	// ("2S-partition / Corollary 1", "min-cut wavefront / Lemma 2", ...).
	Technique string
	// Assumptions states the regime in which the bound holds
	// ("asymptotic, n >> S", "exact", ...).
	Assumptions string
}

// String renders the bound.
func (b Bound) String() string {
	s := fmt.Sprintf("%s bound %.6g words [%s]", b.Kind, b.Value, b.Technique)
	if b.Assumptions != "" {
		s += " (" + b.Assumptions + ")"
	}
	return s
}

// --- Composition ----------------------------------------------------------

// Decomposition composes per-sub-CDAG lower bounds by addition (Theorem 2):
// for any disjoint partitioning of the vertices, the sum of the sub-CDAGs'
// I/O lower bounds is a lower bound for the whole CDAG.
func Decomposition(sub []Bound) Bound {
	var total float64
	for _, b := range sub {
		if b.Kind != Lower {
			continue
		}
		total += b.Value
	}
	return Bound{Value: total, Kind: Lower, Technique: "decomposition (Theorem 2)"}
}

// --- Parallel conversion theorems ------------------------------------------

// VerticalFromSequential applies Theorem 5: the busiest level-l storage unit
// moves at least IO1(C, S_{l−1}·N_{l−1}) / N_l words, where seqLower is a
// sequential lower bound computed with fast-memory capacity S_{l−1}·N_{l−1}
// and nL is the number of level-l units.
func VerticalFromSequential(seqLower Bound, nL int) Bound {
	if nL < 1 {
		nL = 1
	}
	return Bound{
		Value:       seqLower.Value / float64(nL),
		Kind:        Lower,
		Technique:   "vertical parallel conversion (Theorem 5) over " + seqLower.Technique,
		Assumptions: seqLower.Assumptions,
	}
}

// VerticalFromPartition applies Theorem 6: the busiest level-l unit moves at
// least (|V| / (U(2S_{l−1})·N_l) − N_{l−1}/N_l) · S_{l−1} words, where u2S
// bounds the largest 2S-partition vertex set.
func VerticalFromPartition(numVertices int64, u2S int64, sLm1, nLm1, nL int) Bound {
	if u2S < 1 || nL < 1 {
		return Bound{Kind: Lower, Technique: "vertical 2S-partition (Theorem 6)"}
	}
	v := (float64(numVertices)/(float64(u2S)*float64(nL)) - float64(nLm1)/float64(nL)) * float64(sLm1)
	if v < 0 {
		v = 0
	}
	return Bound{
		Value:     v,
		Kind:      Lower,
		Technique: "vertical 2S-partition (Theorem 6)",
	}
}

// HorizontalFromPartition applies Theorem 7: the node group performing the
// most computation issues at least (|V| / (U(2S_L)·P_i) − 1) · S_L remote
// gets, where pI is the number of level-L storage units (node groups).
func HorizontalFromPartition(numVertices int64, u2SL int64, sL, pI int) Bound {
	if u2SL < 1 || pI < 1 {
		return Bound{Kind: Lower, Technique: "horizontal 2S-partition (Theorem 7)"}
	}
	v := (float64(numVertices)/(float64(u2SL)*float64(pI)) - 1) * float64(sL)
	if v < 0 {
		v = 0
	}
	return Bound{
		Value:     v,
		Kind:      Lower,
		Technique: "horizontal 2S-partition (Theorem 7)",
	}
}

// --- Closed forms for classical kernels -------------------------------------

// MatMulLower returns the classical sequential I/O lower bound for n×n
// matrix multiplication with fast memory S: n³ / (2·√(2S)).
func MatMulLower(n int, s int) Bound {
	return Bound{
		Value:       float64(n) * float64(n) * float64(n) / (2 * math.Sqrt(2*float64(s))),
		Kind:        Lower,
		Technique:   "matmul 2S-partition (Hong & Kung)",
		Assumptions: "asymptotic, n >> S",
	}
}

// OuterProductIO returns the exact I/O cost of an n×n outer product:
// 2n input loads plus n² result stores, independent of S.
func OuterProductIO(n int) Bound {
	return Bound{
		Value:     float64(2*n) + float64(n)*float64(n),
		Kind:      Lower,
		Technique: "outer product compulsory I/O",
	}
}

// FFTLower returns the classical Ω(n·log n / log S) sequential I/O lower
// bound for the n-point FFT butterfly, in the normalized form
// n·log₂(n) / (2·log₂(2S)).
func FFTLower(n, s int) Bound {
	if n < 2 || s < 1 {
		return Bound{Kind: Lower, Technique: "FFT S-span"}
	}
	return Bound{
		Value:       float64(n) * math.Log2(float64(n)) / (2 * math.Log2(2*float64(s))),
		Kind:        Lower,
		Technique:   "FFT S-span (Hong & Kung / Savage)",
		Assumptions: "asymptotic, n >> S",
	}
}

package linalg

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	ColIdx     []int     // length NNZ
	Values     []float64 // length NNZ
}

// coord is a triplet used while assembling a CSR matrix.
type coord struct {
	r, c int
	v    float64
}

// CSRBuilder assembles a CSR matrix from (row, col, value) triplets.
// Duplicate coordinates are summed.
type CSRBuilder struct {
	rows, cols int
	entries    []coord
}

// NewCSRBuilder returns a builder for a rows×cols matrix.
func NewCSRBuilder(rows, cols int) *CSRBuilder {
	return &CSRBuilder{rows: rows, cols: cols}
}

// Add records the triplet (r, c, v).
func (b *CSRBuilder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("linalg: CSR entry (%d,%d) out of %dx%d", r, c, b.rows, b.cols))
	}
	b.entries = append(b.entries, coord{r, c, v})
}

// Build produces the CSR matrix.  Entries are sorted by (row, col) and
// duplicates are summed; explicit zeros are kept (they still represent
// dependences in a traced CDAG).
func (b *CSRBuilder) Build() *CSR {
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].r != b.entries[j].r {
			return b.entries[i].r < b.entries[j].r
		}
		return b.entries[i].c < b.entries[j].c
	})
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	for i := 0; i < len(b.entries); {
		j := i
		v := 0.0
		for j < len(b.entries) && b.entries[j].r == b.entries[i].r && b.entries[j].c == b.entries[i].c {
			v += b.entries[j].v
			j++
		}
		m.ColIdx = append(m.ColIdx, b.entries[i].c)
		m.Values = append(m.Values, v)
		m.RowPtr[b.entries[i].r+1]++
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// MulVec returns A·x as a new vector.
func (m *CSR) MulVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: CSR MulVec dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	y := NewVector(m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Values[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
	return y
}

// Row returns the column indices and values of row r (views into the CSR
// arrays; do not modify).
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	return m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]], m.Values[m.RowPtr[r]:m.RowPtr[r+1]]
}

// At returns element (r, c), zero if not stored.
func (m *CSR) At(r, c int) float64 {
	cols, vals := m.Row(r)
	for i, cc := range cols {
		if cc == c {
			return vals[i]
		}
	}
	return 0
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			d := m.At(c, r) - vals[i]
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

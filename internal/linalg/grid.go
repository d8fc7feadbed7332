package linalg

import "fmt"

// Grid describes a d-dimensional regular computational grid with n points per
// dimension (the mesh obtained by discretizing a PDE domain, Section 5.1).
type Grid struct {
	Dim int // number of dimensions d
	N   int // points per dimension
}

// NewGrid returns a Grid with the given dimensionality and extent.  It panics
// on non-positive parameters.
func NewGrid(dim, n int) Grid {
	if dim <= 0 || n <= 0 {
		panic(fmt.Sprintf("linalg: invalid grid %d^%d", n, dim))
	}
	return Grid{Dim: dim, N: n}
}

// Points returns the total number of grid points n^d.
func (g Grid) Points() int {
	p := 1
	for i := 0; i < g.Dim; i++ {
		p *= g.N
	}
	return p
}

// Index converts multi-dimensional coordinates to a linear index
// (row-major: the last coordinate varies fastest).
func (g Grid) Index(coords []int) int {
	if len(coords) != g.Dim {
		panic(fmt.Sprintf("linalg: coordinate arity %d does not match grid dim %d", len(coords), g.Dim))
	}
	idx := 0
	for _, c := range coords {
		if c < 0 || c >= g.N {
			panic(fmt.Sprintf("linalg: coordinate %d out of [0,%d)", c, g.N))
		}
		idx = idx*g.N + c
	}
	return idx
}

// Coords converts a linear index back to multi-dimensional coordinates.
func (g Grid) Coords(idx int) []int {
	coords := make([]int, g.Dim)
	for i := g.Dim - 1; i >= 0; i-- {
		coords[i] = idx % g.N
		idx /= g.N
	}
	return coords
}

// Neighbors returns the linear indices of the face neighbors (±1 along each
// dimension) of the point at the given linear index, in a deterministic order.
// Points outside the grid (boundary) are omitted.
func (g Grid) Neighbors(idx int) []int {
	coords := g.Coords(idx)
	var out []int
	for d := 0; d < g.Dim; d++ {
		for _, delta := range []int{-1, +1} {
			c := coords[d] + delta
			if c < 0 || c >= g.N {
				continue
			}
			old := coords[d]
			coords[d] = c
			out = append(out, g.Index(coords))
			coords[d] = old
		}
	}
	return out
}

// Laplacian returns the standard (2d+1)-point finite-difference Laplacian of
// the grid as a CSR matrix: 2d on the diagonal and −1 for each face neighbor.
// With Dirichlet boundaries the matrix is symmetric positive definite, which
// is the setting CG requires.
func (g Grid) Laplacian() *CSR {
	np := g.Points()
	b := NewCSRBuilder(np, np)
	for i := 0; i < np; i++ {
		b.Add(i, i, float64(2*g.Dim))
		for _, j := range g.Neighbors(i) {
			b.Add(i, j, -1)
		}
	}
	return b.Build()
}

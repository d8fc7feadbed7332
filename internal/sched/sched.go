// Package sched builds execution schedules and processor/node assignments for
// the CDAGs produced by package gen: plain topological orders, cache-oblivious
// blocked orders for matrix multiplication, skewed (parallelogram) time tiles
// for Jacobi stencils, and block partitions of grid computations across the
// nodes of a distributed machine.
//
// Schedules are consumed by the schedule players in packages pebble, prbw and
// memsim; the measured data movement of a good schedule is the empirical
// upper bound that the benchmark harness compares against the paper's lower
// bounds.  Check is the players' common front end: it validates a schedule
// once, in one order and one wording, and returns its Uses, the index of the
// steps that consume each vertex, from which the players read next and last
// uses.
package sched

import (
	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// Topological returns the non-input vertices of g in topological order — the
// baseline schedule.
func Topological(g *cdag.Graph) []cdag.VertexID {
	order := make([]cdag.VertexID, 0, g.NumOperations())
	for _, v := range g.MustTopoOrder() {
		if !g.IsInput(v) {
			order = append(order, v)
		}
	}
	return order
}

// MatMulBlocked returns a blocked schedule of the matmul CDAG: the iteration
// space (i, j, k) is traversed in tiles of the given block size, with the k
// blocks outermost so each C tile's accumulation chain stays in fast memory
// while a block of A and B is reused.  For block ≥ n the schedule degenerates
// to the naive i, j, k order.
func MatMulBlocked(r *gen.MatMulResult, block int) []cdag.VertexID {
	if block < 1 {
		panic("sched: block size must be >= 1")
	}
	n := r.N
	g := r.Graph
	order := make([]cdag.VertexID, 0, g.NumOperations())
	for ib := 0; ib < n; ib += block {
		for jb := 0; jb < n; jb += block {
			for kb := 0; kb < n; kb += block {
				for i := ib; i < min(ib+block, n); i++ {
					for j := jb; j < min(jb+block, n); j++ {
						for k := kb; k < min(kb+block, n); k++ {
							order = append(order, r.Mul[i][j][k])
							if add := r.Add[i][j][k]; add != cdag.InvalidVertex {
								order = append(order, add)
							}
						}
					}
				}
			}
		}
	}
	return order
}

// StencilSkewed returns a skewed (parallelogram) tiled schedule for a Jacobi
// CDAG: spatial tiles of the given width are shifted by one cell per time
// step, which makes tile-major, time-minor execution legal for radius-1
// stencils and gives each tile a working set of Θ(tile^d) values.  With
// tile ≈ S^(1/d) the measured I/O matches the lower bound of Theorem 10 up to
// a constant factor, which is how the paper's tightness remark is reproduced.
func StencilSkewed(r *gen.JacobiResult, tile int) []cdag.VertexID {
	if tile < 1 {
		panic("sched: tile size must be >= 1")
	}
	grid := r.Grid
	dim := grid.Dim
	// The skew shifts tiles left by one cell per time step, so covering the
	// whole space-time domain needs tiles for indices up to
	// (N-1 + Steps-1)/tile.
	nTiles := (grid.N-1+r.Steps-1)/tile + 1
	totalTiles := 1
	for d := 0; d < dim; d++ {
		totalTiles *= nTiles
	}
	order := make([]cdag.VertexID, 0, grid.Points()*r.Steps)
	tileCoord := make([]int, dim)
	for ti := 0; ti < totalTiles; ti++ {
		// Decode the tile index into per-dimension tile coordinates
		// (lexicographic order).
		rem := ti
		for d := dim - 1; d >= 0; d-- {
			tileCoord[d] = rem % nTiles
			rem /= nTiles
		}
		for t := 1; t <= r.Steps; t++ {
			// The tile's cell range in each dimension shifts left by (t-1).
			appendTileCells(&order, r, tileCoord, tile, t)
		}
	}
	return order
}

// appendTileCells appends the vertices of time step t whose cell coordinates
// fall inside the skewed tile.
func appendTileCells(order *[]cdag.VertexID, r *gen.JacobiResult, tileCoord []int, tile, t int) {
	grid := r.Grid
	dim := grid.Dim
	lo := make([]int, dim)
	hi := make([]int, dim)
	for d := 0; d < dim; d++ {
		lo[d] = tileCoord[d]*tile - (t - 1)
		hi[d] = lo[d] + tile
		if lo[d] < 0 {
			lo[d] = 0
		}
		if hi[d] > grid.N {
			hi[d] = grid.N
		}
		if lo[d] >= hi[d] {
			return
		}
	}
	coords := make([]int, dim)
	copy(coords, lo)
	for {
		*order = append(*order, r.Layer[t][grid.Index(coords)])
		d := dim - 1
		for d >= 0 {
			coords[d]++
			if coords[d] < hi[d] {
				break
			}
			coords[d] = lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// BlockPartitionGrid assigns the vertices of a Jacobi CDAG to nodes by
// splitting the spatial grid into equal slabs along the first dimension
// (owner-compute: every time step of a cell stays on the cell's owner).
// It returns the per-vertex owner array used by prbw.OwnerCompute and
// memsim.RunCtx.
func BlockPartitionGrid(r *gen.JacobiResult, nodes int) []int {
	if nodes < 1 {
		panic("sched: need at least one node")
	}
	owner := make([]int, r.Graph.NumVertices())
	grid := r.Grid
	for t := 0; t <= r.Steps; t++ {
		for c, v := range r.Layer[t] {
			slab := grid.Coords(c)[0] * nodes / grid.N
			if slab >= nodes {
				slab = nodes - 1
			}
			owner[v] = slab
		}
	}
	return owner
}

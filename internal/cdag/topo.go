package cdag

import "fmt"

// TopoOrder returns the vertices of g in a topological order (Kahn's
// algorithm with a FIFO worklist, so the order is deterministic for a given
// construction order).  It returns ErrCyclic if the graph contains a cycle.
func (g *Graph) TopoOrder() ([]VertexID, error) {
	g.ensure()
	n := g.n
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		indeg[v] = int32(g.predOff[v+1] - g.predOff[v])
	}
	queue := make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.succVal[g.succOff[v]:g.succOff[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d of %d vertices unreachable from sources in Kahn ordering",
			ErrCyclic, n-len(order), n)
	}
	return order, nil
}

// MustTopoOrder is TopoOrder but panics on cyclic graphs.  Generators produce
// acyclic graphs by construction, so this is the common entry point inside
// the library.
func (g *Graph) MustTopoOrder() []VertexID {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	return order
}

// Levels assigns each vertex its longest-path depth from the sources
// (sources have level 0) and returns the per-vertex level along with the
// maximum level.  The level structure is the "layer" decomposition used by
// wavefront schedules and by several generators' self-checks.
func (g *Graph) Levels() (level []int, maxLevel int, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	level = make([]int, g.n)
	for _, v := range order {
		for _, p := range g.predVal[g.predOff[v]:g.predOff[v+1]] {
			if level[p]+1 > level[v] {
				level[v] = level[p] + 1
			}
		}
		if level[v] > maxLevel {
			maxLevel = level[v]
		}
	}
	return level, maxLevel, nil
}

// CriticalPathLength returns the number of vertices on a longest directed
// path in g (the depth of the computation, a lower bound on parallel steps).
func (g *Graph) CriticalPathLength() int {
	_, maxLevel, err := g.Levels()
	if err != nil {
		return 0
	}
	return maxLevel + 1
}

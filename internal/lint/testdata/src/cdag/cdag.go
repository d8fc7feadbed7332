// Package cdag is the graph stub the lint fixtures compile against; it
// mirrors the adjacency surface of cdagio/internal/cdag (the hotloop analyzer
// matches the Graph type by package basename, so this stub triggers it the
// same way the real package does).
package cdag

// VertexID identifies a vertex.
type VertexID int32

// Graph is the stub CDAG.
type Graph struct {
	n int
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// Succ returns the successor row of v.
func (g *Graph) Succ(v VertexID) []VertexID { return nil }

// Pred returns the predecessor row of v.
func (g *Graph) Pred(v VertexID) []VertexID { return nil }

// SuccessorCSR returns the hoisted successor rows.
func (g *Graph) SuccessorCSR() (off []int64, val []VertexID) { return nil, nil }

// PredecessorCSR returns the hoisted predecessor rows.
func (g *Graph) PredecessorCSR() (off []int64, val []VertexID) { return nil, nil }

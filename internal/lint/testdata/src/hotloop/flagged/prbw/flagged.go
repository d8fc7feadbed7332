// Package prbw is a hotloop fixture: its import-path basename puts it in the
// hot set, so per-iteration adjacency calls must be flagged.
package prbw

import "cdag"

// SumDegrees re-derives adjacency rows inside its loops.
func SumDegrees(g *cdag.Graph, order []cdag.VertexID) int {
	total := 0
	for _, v := range order {
		total += len(g.Succ(v)) // want `Succ called inside a loop in hot package prbw`
	}
	for i := 0; i < len(order); i++ {
		total += len(g.Pred(order[i])) // want `Pred called inside a loop in hot package prbw`
	}
	return total
}

// Walk smuggles the per-call row lookup into the callee as a method value.
func Walk(g *cdag.Graph) {
	visit(g.Succ) // want `Succ used as a method value in hot package prbw`
}

func visit(next func(cdag.VertexID) []cdag.VertexID) {}

package sched

import (
	"fmt"

	"cdagio/internal/cdag"
)

// Never is the position Uses.Next reports when no later step consumes a
// vertex.
const Never = int(^uint(0) >> 1)

// CapacityError reports a vertex that cannot fire in a fast memory of the
// given capacity: it needs its InDegree operands and its own value resident
// at once.
type CapacityError struct {
	Vertex   cdag.VertexID
	InDegree int
	Capacity int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("capacity %d too small: vertex %d has in-degree %d", e.Capacity, e.Vertex, e.InDegree)
}

// Check is the front end of the schedule players in packages pebble, memsim
// and prbw.  It checks that order lists every non-input vertex of g exactly
// once, each after its non-input predecessors, and that every vertex fits in
// a fast memory of the given capacity together with its operands; pass
// math.MaxInt to check the order alone.  It returns the schedule's use index.
//
// The first fault found is returned.  Order faults read like "vertex 3
// missing from schedule", with no package prefix, so each player can put its
// own in front; a capacity fault is a *CapacityError, which each player words
// in its own terms.
func Check(g *cdag.Graph, order []cdag.VertexID, capacity int) (*Uses, error) {
	n := g.NumVertices()
	predOff, predVal := g.PredecessorCSR()
	// at[v] is v's schedule position plus one, zero while v is unscheduled,
	// so an input predecessor never compares as scheduled later.  off[p+1]
	// counts the steps that consume p.
	at := make([]int32, n)
	off := make([]int64, n+1)
	for i, v := range order {
		switch {
		case !g.ValidVertex(v):
			return nil, fmt.Errorf("vertex %d out of range", v)
		case g.IsInput(v):
			return nil, fmt.Errorf("input vertex %d scheduled for compute", v)
		case at[v] != 0:
			return nil, fmt.Errorf("vertex %d scheduled twice", v)
		}
		at[v] = int32(i + 1)
	}
	for v := 0; v < n; v++ {
		if g.IsInput(cdag.VertexID(v)) {
			continue
		}
		if at[v] == 0 {
			return nil, fmt.Errorf("vertex %d missing from schedule", v)
		}
		preds := predVal[predOff[v]:predOff[v+1]]
		for _, p := range preds {
			if at[p] > at[v] {
				return nil, fmt.Errorf("vertex %d scheduled before its predecessor %d", v, p)
			}
			off[p+1]++
		}
		if len(preds)+1 > capacity {
			return nil, &CapacityError{Vertex: cdag.VertexID(v), InDegree: len(preds), Capacity: capacity}
		}
	}

	// Prefix sums turn the counts into offsets, and a stable scatter over the
	// schedule lists each vertex's uses in increasing position order; the
	// position array, cleared, counts the fill and then serves as the cursors.
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	pos := make([]int32, off[n])
	cur := at
	clear(cur)
	for i, v := range order {
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			pos[off[p]+int64(cur[p])] = int32(i)
			cur[p]++
		}
	}
	clear(cur)
	return &Uses{off: off, pos: pos, cur: cur}, nil
}

// Uses indexes the consumers of a checked schedule: for each vertex, the
// positions of the steps that read it as an operand, in increasing order, as
// one flat CSR table, with one cursor per vertex.
//
// Next and Rest move v's cursor past the positions at or before the one asked
// about, so the positions asked about for one vertex must not decrease from
// call to call: a player asks at its current step.  Last reads no cursor.  A
// Uses is not safe for concurrent use.
type Uses struct {
	off []int64 // the uses of v are pos[off[v]:off[v+1]]
	pos []int32
	cur []int32 // cur[v] counts the uses of v the cursor has passed
}

// Next returns the first position after the given one whose step consumes v,
// or Never.
func (u *Uses) Next(v cdag.VertexID, after int) int {
	if rest := u.Rest(v, after); len(rest) > 0 {
		return int(rest[0])
	}
	return Never
}

// Rest returns, in increasing order, the positions after the given one whose
// steps consume v.  The slice aliases the index and must not be modified.
func (u *Uses) Rest(v cdag.VertexID, after int) []int32 {
	rest := u.pos[u.off[v]+int64(u.cur[v]) : u.off[v+1]]
	k := 0
	for k < len(rest) && int(rest[k]) <= after {
		k++
	}
	u.cur[v] += int32(k)
	return rest[k:]
}

// Last returns the position of the last step that consumes v, or -1 when no
// step does.
func (u *Uses) Last(v cdag.VertexID) int {
	if lo, hi := u.off[v], u.off[v+1]; hi > lo {
		return int(u.pos[hi-1])
	}
	return -1
}

// Package partition implements the S-partitioning machinery of Hong & Kung
// as adapted to the Red-Blue-White pebble game (Definition 5 of the paper):
// validation of S-partitions, construction of the 2S-partition associated
// with a pebble game (the Theorem 1 construction), exact computation of the
// largest admissible vertex set U(2S) on small CDAGs, and the resulting I/O
// lower bounds of Lemma 1 and Corollary 1.
package partition

import (
	"fmt"
	"math"
	"math/bits"

	"cdagio/internal/cdag"
	"cdagio/internal/pebble"
)

// SPartition is a candidate S-partition of the non-input vertices of a CDAG.
type SPartition struct {
	S     int
	Parts []*cdag.VertexSet
}

// Validate checks properties P1–P4 of Definition 5 against g:
// the parts disjointly cover V − I, no two parts have edges in both
// directions between them, and every part has |In| ≤ S and |Out| ≤ S.
func (p SPartition) Validate(g *cdag.Graph) error {
	if p.S < 1 {
		return fmt.Errorf("partition: S must be positive, got %d", p.S)
	}
	n := g.NumVertices()
	partOf := make([]int, n)
	for i := range partOf {
		partOf[i] = -1
	}
	covered := 0
	for i, part := range p.Parts {
		for _, v := range part.Elements() {
			if g.IsInput(v) {
				return fmt.Errorf("partition: part %d contains input vertex %d (P1)", i, v)
			}
			if partOf[v] >= 0 {
				return fmt.Errorf("partition: vertex %d appears in parts %d and %d (P1)", v, partOf[v], i)
			}
			partOf[v] = i
			covered++
		}
	}
	if covered != g.NumVertices()-g.NumInputs() {
		return fmt.Errorf("partition: parts cover %d vertices, want |V|-|I| = %d (P1)",
			covered, g.NumVertices()-g.NumInputs())
	}
	// P2: no circuit (edges in both directions) between any two parts.
	forward := make(map[[2]int]bool)
	for v := 0; v < n; v++ {
		if partOf[v] < 0 {
			continue
		}
		for _, w := range g.Succ(cdag.VertexID(v)) {
			if partOf[w] < 0 || partOf[w] == partOf[v] {
				continue
			}
			key := [2]int{partOf[v], partOf[w]}
			forward[key] = true
			if forward[[2]int{key[1], key[0]}] {
				return fmt.Errorf("partition: circuit between parts %d and %d (P2)", key[0], key[1])
			}
		}
	}
	// P3 and P4.
	for i, part := range p.Parts {
		if in := cdag.In(g, part); in.Len() > p.S {
			return fmt.Errorf("partition: part %d has |In| = %d > S = %d (P3)", i, in.Len(), p.S)
		}
		if out := cdag.Out(g, part); out.Len() > p.S {
			return fmt.Errorf("partition: part %d has |Out| = %d > S = %d (P4)", i, out.Len(), p.S)
		}
	}
	return nil
}

// NumParts returns h, the number of parts.
func (p SPartition) NumParts() int { return len(p.Parts) }

// MaxPartSize returns the size of the largest part.
func (p SPartition) MaxPartSize() int {
	max := 0
	for _, part := range p.Parts {
		if part.Len() > max {
			max = part.Len()
		}
	}
	return max
}

// FromGameTrace builds the 2S-partition associated with a complete RBW game
// (the construction in the proof of Theorem 1): the move sequence is split
// into consecutive segments containing exactly S I/O moves each (the last
// segment may have fewer), and part i collects the vertices fired during
// segment i.  The resulting partition is a valid 2S-partition of the CDAG,
// which FromGameTrace verifies before returning it.
func FromGameTrace(g *cdag.Graph, res pebble.Result) (SPartition, error) {
	if res.Trace == nil {
		return SPartition{}, fmt.Errorf("partition: game result carries no trace (rerun with recording enabled)")
	}
	s := res.S
	parts := []*cdag.VertexSet{}
	current := cdag.NewVertexSet(g.NumVertices())
	ioInSegment := 0
	movesInSegment := 0
	flush := func() {
		// Empty parts (segments that performed only I/O) are kept so that the
		// number of parts equals ceil(q/S), preserving the Theorem 1 relation
		// S·h ≥ q ≥ S·(h−1).
		parts = append(parts, current)
		current = cdag.NewVertexSet(g.NumVertices())
		movesInSegment = 0
	}
	for _, m := range res.Trace {
		movesInSegment++
		switch m.Kind {
		case pebble.Load, pebble.Store:
			ioInSegment++
			if ioInSegment == s {
				flush()
				ioInSegment = 0
			}
		case pebble.Compute:
			current.Add(m.V)
		}
	}
	if movesInSegment > 0 {
		flush()
	}
	// 2S saturates at math.MaxInt instead of wrapping negative for S ≥ 2^62;
	// no In/Out set can exceed either.
	s2 := math.MaxInt
	if s <= math.MaxInt/2 {
		s2 = 2 * s
	}
	p := SPartition{S: s2, Parts: parts}
	if err := p.Validate(g); err != nil {
		return SPartition{}, fmt.Errorf("partition: game trace did not induce a valid 2S-partition: %w", err)
	}
	return p, nil
}

// Lemma1Bound returns the I/O lower bound of Lemma 1: S × (H(2S) − 1), where
// h2S is the minimum number of parts of any valid 2S-partition.  A product
// beyond int64 saturates at math.MaxInt64.
func Lemma1Bound(s, h2S int) int64 {
	if h2S < 1 {
		return 0
	}
	return sPartsBound(s, h2S-1)
}

// Corollary1Bound returns the I/O lower bound of Corollary 1:
// S × (|V − I| / U(2S) − 1), where u2S bounds the size of the largest vertex
// set of any valid 2S-partition from above.  A product beyond int64
// saturates at math.MaxInt64.
func Corollary1Bound(s, numOperations, u2S int) int64 {
	if u2S < 1 || numOperations < 1 {
		return 0
	}
	parts := numOperations / u2S
	if parts < 1 {
		return 0
	}
	return sPartsBound(s, parts-1)
}

// sPartsBound returns S × k for the bounds above: 0 when either factor is
// below 1, math.MaxInt64 when the product does not fit.  A wrapped product
// would still be a sound lower bound, but not the one the formula states.
func sPartsBound(s, k int) int64 {
	if s < 1 || k < 1 {
		return 0
	}
	if int64(k) > math.MaxInt64/int64(s) {
		return math.MaxInt64
	}
	return int64(s) * int64(k)
}

// MaxVertexSetSizeExact computes, by exhaustive enumeration, the size of the
// largest subset W of the non-input vertices of g with |In(W)| ≤ limit and
// |Out(W)| ≤ limit.  This quantity upper-bounds U(limit) — any vertex set of
// a valid limit-partition satisfies both constraints — so feeding it to
// Corollary1Bound yields a sound lower bound.
//
// The enumeration is exponential; graphs with more than maxVertices
// (default 22) non-input vertices are rejected.
func MaxVertexSetSizeExact(g *cdag.Graph, limit int, maxVertices int) (int, error) {
	if maxVertices <= 0 {
		maxVertices = 22
	}
	ops := []cdag.VertexID{}
	for _, v := range g.Vertices() {
		if !g.IsInput(v) {
			ops = append(ops, v)
		}
	}
	k := len(ops)
	if k > maxVertices {
		return 0, fmt.Errorf("partition: %d non-input vertices exceed the exact-search limit %d", k, maxVertices)
	}
	if k == 0 {
		return 0, nil
	}
	best := 0
	set := cdag.NewVertexSet(g.NumVertices())
	for mask := uint64(1); mask < uint64(1)<<uint(k); mask++ {
		size := bits.OnesCount64(mask)
		if size <= best {
			continue
		}
		set.Clear()
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) != 0 {
				set.Add(ops[i])
			}
		}
		if cdag.In(g, set).Len() <= limit && cdag.Out(g, set).Len() <= limit {
			best = size
		}
	}
	return best, nil
}

// GreedyPartition builds a valid S-partition by slicing a topological order
// of the non-input vertices greedily: each part grows until adding the next
// vertex would violate the |In| ≤ S or |Out| ≤ S constraint.  Because the
// parts follow a topological order there is never a circuit between them.
// The resulting partition witnesses an upper bound on H(S) (the minimum
// number of parts), which brackets the Lemma 1 bound from above in tests and
// reports.
func GreedyPartition(g *cdag.Graph, s int) (SPartition, error) {
	if s < 1 {
		return SPartition{}, fmt.Errorf("partition: S must be positive")
	}
	parts := []*cdag.VertexSet{}
	current := cdag.NewVertexSet(g.NumVertices())
	for _, v := range g.MustTopoOrder() {
		if g.IsInput(v) {
			continue
		}
		current.Add(v)
		if cdag.In(g, current).Len() > s || cdag.Out(g, current).Len() > s {
			current.Remove(v)
			if current.Len() == 0 {
				return SPartition{}, fmt.Errorf("partition: vertex %d alone violates the S=%d constraints", v, s)
			}
			parts = append(parts, current)
			current = cdag.NewVertexSet(g.NumVertices())
			current.Add(v)
			if cdag.In(g, current).Len() > s || cdag.Out(g, current).Len() > s {
				return SPartition{}, fmt.Errorf("partition: vertex %d alone violates the S=%d constraints", v, s)
			}
		}
	}
	if current.Len() > 0 {
		parts = append(parts, current)
	}
	p := SPartition{S: s, Parts: parts}
	if err := p.Validate(g); err != nil {
		return SPartition{}, err
	}
	return p, nil
}

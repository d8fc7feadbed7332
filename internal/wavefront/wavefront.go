// Package wavefront implements the schedule-side half of the min-cut based
// lower-bound technique of Section 3.3: the degree-ranked candidate samples
// the w^max scan is run on, and the Lemma 2 I/O lower bound 2·(w^max − S).
// The wavefronts themselves and the w^max scan live in graphalg: schedule
// wavefronts key the scan's candidates, and the minimum-cardinality
// wavefronts are vertex min-cut computations (CutSolver.MinWavefrontAt,
// MaxMinWavefrontLowerBoundCtx).
//
// The bounds computed here remain valid for CDAGs with tagged inputs because
// untagging inputs can only decrease the I/O complexity (Theorem 3), and the
// wavefront computation itself never looks at input/output tags.
package wavefront

import "cdagio/internal/cdag"

// Lemma2Bound returns the I/O lower bound of Lemma 2: 2·(wmax − S), never
// negative.  It clamps before it multiplies, so an S near the int64 limit
// yields 0 instead of a product that wraps around to a huge positive bound.
func Lemma2Bound(wmax, s int) int64 {
	if wmax <= s {
		return 0
	}
	return 2 * int64(wmax-s)
}

// TopCandidates returns up to k vertices of g ordered by decreasing
// (in-degree + out-degree), with ties broken by increasing vertex ID — a
// cheap heuristic for where large wavefronts occur (reduction roots and
// broadcast sources).  It lets callers bound w^max computations on large
// CDAGs without scanning every vertex.
//
// The selection is partial: a size-k min-heap over the streamed degrees
// followed by an in-place heapsort, O(V log k) time with one allocation for
// the result (plus a k-sized degree mirror), instead of materializing and
// fully sorting all |V| ranked entries.
func TopCandidates(g *cdag.Graph, k int) []cdag.VertexID {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	out := make([]cdag.VertexID, 0, k)
	if k == 0 {
		return out
	}
	// degs mirrors out: each kept vertex's degree is computed once on entry
	// into the heap, never re-derived inside comparisons.
	degs := make([]int32, 0, k)
	// weaker(i, j): entry i is evicted from the top-k before entry j.  The
	// heap root is the weakest kept candidate.
	weaker := func(i, j int) bool {
		if degs[i] != degs[j] {
			return degs[i] < degs[j]
		}
		return out[i] > out[j]
	}
	swap := func(i, j int) {
		out[i], out[j] = out[j], out[i]
		degs[i], degs[j] = degs[j], degs[i]
	}
	siftDown := func(i, size int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < size && weaker(l, min) {
				min = l
			}
			if r < size && weaker(r, min) {
				min = r
			}
			if min == i {
				return
			}
			swap(i, min)
			i = min
		}
	}
	for v := cdag.VertexID(0); int(v) < n; v++ {
		d := int32(g.InDegree(v) + g.OutDegree(v))
		if len(out) < k {
			out = append(out, v)
			degs = append(degs, d)
			// Sift up.
			for i := len(out) - 1; i > 0; {
				parent := (i - 1) / 2
				if !weaker(i, parent) {
					break
				}
				swap(i, parent)
				i = parent
			}
			continue
		}
		if degs[0] < d || (degs[0] == d && out[0] > v) {
			out[0], degs[0] = v, d
			siftDown(0, k)
		}
	}
	// In-place heapsort: repeatedly move the weakest remaining entry to the
	// end, leaving the slice ordered strongest first (degree descending, ties
	// by increasing vertex ID) — exactly the order a full sort would produce.
	for end := len(out) - 1; end > 0; end-- {
		swap(0, end)
		siftDown(0, end)
	}
	return out
}

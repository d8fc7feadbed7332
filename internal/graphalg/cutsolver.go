package graphalg

import (
	"math"

	"cdagio/internal/cdag"
)

// CutSolver is the reusable scratch behind every vertex min-cut computation:
// cone-exploration marks, dense-ID remap tables, and one flowCSR max-flow
// network.  A solver owns no goroutines and is not safe for concurrent use;
// create one per worker (the w^max search does) or draw one from a
// SolverPool.
//
// Both of its queries solve strip-locally.  MinWavefrontAt contracts the
// ancestor cone into the super source (keeping its boundary vertices) and
// the descendant cone into the super sink, and materializes only the free
// strip between the cones, so the network — and the Dinic solve on it —
// scales with the strip instead of with |V|; see the package documentation
// for why the contraction is exact.  MinDominatorSize materializes only the
// vertices on some input→target path.  Every solve builds its network afresh
// and starts from zero flow; only the scratch arrays carry over between calls.
//
// Bound values, witnesses and returned cut sets are bit-identical to the
// historical per-call full vertex-split networks, with or without the
// mid-solve abort.
type CutSolver struct {
	g *cdag.Graph // graph the per-vertex scratch below is sized for
	n int
	m int // edge count the cached CSR view below was taken at

	// Cached CSR adjacency of g (read-only, owned by the graph).  Solvers
	// treat graphs as immutable while bound to them; the cache is refreshed
	// when the graph identity or its vertex/edge counts change.
	succOff, predOff []int64
	succVal, predVal []cdag.VertexID

	// Epoch-stamped per-vertex marks: valid iff the entry equals epoch.
	epoch    int32
	ancMark  []int32
	descMark []int32
	seenMark []int32
	coMark   []int32 // free vertex with a directed path into Desc(x); −epoch: reached from A, no such path
	mapEp    []int32 // strip remap: localOf[v] valid iff mapEp[v] == epoch
	tEp      []int32 // v already has its contracted arc to the super sink
	localOf  []int32

	stack []cdag.VertexID
	anc   []cdag.VertexID
	desc  []cdag.VertexID

	// Strip-network reverse map: stripVerts[l] is the graph vertex behind
	// local id l of the current strip network (localOf's inverse).
	stripVerts []cdag.VertexID

	// strip hosts the network of the current query: a candidate's
	// strip-local wavefront instance or a dominator strip.
	strip flowCSR
}

// NewCutSolver returns an empty solver; its scratch grows to fit the graphs
// it is given and is recycled across calls.
func NewCutSolver() *CutSolver { return &CutSolver{} }

// ensureGraph sizes the per-vertex scratch for g and materializes g's CSR
// arrays (the lazy compilation is not synchronized, and solvers are used from
// worker pools).
func (cs *CutSolver) ensureGraph(g *cdag.Graph) {
	g.Materialize()
	n, m := g.NumVertices(), g.NumEdges()
	if cs.g == g && cs.n == n && cs.m == m {
		return
	}
	cs.g = g
	cs.n = n
	cs.m = m
	cs.succOff, cs.succVal, cs.predOff, cs.predVal = g.AdjacencyCSR()
	cs.ancMark = growInt32(cs.ancMark, n)
	cs.descMark = growInt32(cs.descMark, n)
	cs.seenMark = growInt32(cs.seenMark, n)
	cs.coMark = growInt32(cs.coMark, n)
	cs.mapEp = growInt32(cs.mapEp, n)
	cs.tEp = growInt32(cs.tEp, n)
	cs.localOf = growInt32(cs.localOf, n)
}

// nextEpoch advances the mark epoch, clearing the stamp arrays on int32
// rollover so stale stamps can never collide with a future epoch.
func (cs *CutSolver) nextEpoch() int32 {
	cs.epoch++
	if cs.epoch == math.MaxInt32 {
		for _, s := range [][]int32{cs.ancMark, cs.descMark, cs.seenMark, cs.coMark, cs.mapEp, cs.tEp} {
			for i := range s {
				s[i] = 0
			}
		}
		cs.epoch = 1
	}
	return cs.epoch
}

// explore stamps the ancestor and descendant sets of x into the scratch marks
// and element lists for a fresh epoch.
func (cs *CutSolver) explore(x cdag.VertexID) {
	cs.nextEpoch()
	cs.exploreAnc(x)
	cs.exploreDesc(x)
}

// exploreDesc stamps Desc(x) into the descendant marks and list under the
// current epoch.  The two cone walks are independent: the w^max search's seed
// pass walks the ancestor cone first, its solve pass the descendant cone.
func (cs *CutSolver) exploreDesc(x cdag.VertexID) {
	e := cs.epoch
	sOff, sVal := cs.succOff, cs.succVal

	cs.desc = cs.desc[:0]
	stack := cs.stack[:0]
	for _, w := range sVal[sOff[x]:sOff[x+1]] {
		if cs.descMark[w] != e {
			cs.descMark[w] = e
			cs.desc = append(cs.desc, w)
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range sVal[sOff[u]:sOff[u+1]] {
			if cs.descMark[w] != e {
				cs.descMark[w] = e
				cs.desc = append(cs.desc, w)
				stack = append(stack, w)
			}
		}
	}
	cs.stack = stack[:0]
}

// exploreAnc stamps Anc(x) into the ancestor marks and list under the
// current epoch.  Vertices are marked before being pushed, so every CDAG edge
// is inspected once and the stack never holds duplicates — on the
// high-fan-in reduction vertices of Krylov CDAGs this halves the traversal's
// memory traffic.
func (cs *CutSolver) exploreAnc(x cdag.VertexID) {
	e := cs.epoch
	pOff, pVal := cs.predOff, cs.predVal

	cs.anc = cs.anc[:0]
	stack := cs.stack[:0]
	for _, w := range pVal[pOff[x]:pOff[x+1]] {
		if cs.ancMark[w] != e {
			cs.ancMark[w] = e
			cs.anc = append(cs.anc, w)
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range pVal[pOff[u]:pOff[u+1]] {
			if cs.ancMark[w] != e {
				cs.ancMark[w] = e
				cs.anc = append(cs.anc, w)
				stack = append(stack, w)
			}
		}
	}
	cs.stack = stack[:0]
}

// minWavefront computes the min-cut wavefront bound of the explored candidate
// (see MinWavefrontAt) on the strip-local network.
//
// Construction: let A = {x} ∪ Anc(x) and D = Desc(x).  A is closed under
// predecessors, so no edge enters A from outside and every A→D path leaves A
// exactly once, through a boundary vertex b (a vertex of A with a successor
// outside A).  The network therefore keeps only the boundary of A and the
// free strip reachable from it: super source → bIn for each boundary b, unit
// split arcs bIn→bOut and uIn→uOut for boundary and strip vertices, edge arcs
// into the strip, and every edge into D contracted to a single arc to the
// super sink (D is successor-closed and uncuttable, so its interior can carry
// no cut vertex and needs no nodes).  The minimum cut value is unchanged: any
// cut vertex inside A \ boundary covers only paths whose boundary-suffix — an
// A→D path itself — must independently be covered by boundary or strip
// vertices, so some minimum cut always lies inside boundary ∪ strip, which is
// exactly the vertex set this network can cut.
func (cs *CutSolver) minWavefront(x cdag.VertexID) int {
	w, _ := cs.minWavefrontRun(x, 0)
	return w
}

// minWavefrontRun is minWavefront with the mid-solve abort: when need > 0 the
// Dinic solve runs under the level-cut certificate of maxFlowBounded and stops
// early once some BFS level cut proves the final wavefront must stay below
// need.  The second return is true for such an aborted candidate (its exact
// value is unknown but provably < need); otherwise the returned value is
// exact.
func (cs *CutSolver) minWavefrontRun(x cdag.VertexID, need int) (int, bool) {
	if len(cs.desc) == 0 {
		return 1, false
	}
	cs.buildStrip(x)
	f := &cs.strip
	if need > 0 {
		flow, aborted := f.maxFlowBounded(0, 1, int64(need))
		if aborted {
			return 0, true
		}
		return max(int(flow), 1), false
	}
	return max(int(f.maxFlow(0, 1)), 1), false
}

// buildStrip builds the strip-local network of the explored candidate x
// (which must have descendants) into cs.strip.
//
// The network needs to know which free vertices have a directed path into D;
// only those can carry flow.  Either side can find them, and buildStrip sweeps
// from the one with fewer seed rows — the rows a sweep must scan before it
// marks anything: the out-edges of A = {x} ∪ Anc(x) for the forward sweep,
// the in-edges of D = Desc(x) for the backward one (forwardCheaper).  The
// choice cannot change the network.  stripNetwork reads the co-reachability
// marks only on free successors of A and of strip vertices, all of which are
// forward-reachable from A; and every path from such a vertex into D stays
// among forward-reachable vertices, so sweepForward marks exactly the
// co-reachable ones among them, as sweepBackward does.  The arcs, and with
// them bounds, witnesses and cut sets, are identical.
func (cs *CutSolver) buildStrip(x cdag.VertexID) {
	if cs.forwardCheaper(x) {
		cs.sweepForward(x)
	} else {
		cs.sweepBackward(x)
	}
	cs.stripNetwork(x)
}

// forwardCheaper reports whether the out-edges of {x} ∪ Anc(x) are fewer than
// the in-edges of Desc(x).  It extends whichever running sum is smaller, so it
// stops summing once one side is complete and the comparison is decided.
func (cs *CutSolver) forwardCheaper(x cdag.VertexID) bool {
	sOff, pOff := cs.succOff, cs.predOff
	rowsA, rowsD := sOff[x+1]-sOff[x], int64(0)
	ai, di := 0, 0
	for {
		if rowsA < rowsD {
			if ai == len(cs.anc) {
				return true
			}
			v := cs.anc[ai]
			rowsA += sOff[v+1] - sOff[v]
			ai++
		} else {
			if di == len(cs.desc) {
				return false
			}
			d := cs.desc[di]
			rowsD += pOff[d+1] - pOff[d]
			di++
		}
	}
}

// sweepBackward stamps coMark with the epoch on every free vertex with a
// directed path into D, discovered from D's in-boundary.  Dropping the rest of
// the strip (no path to the sink) cannot change the min cut and keeps the
// network tight even when the incomparable set is large (shallow stencil
// sweeps, wide Krylov iterations).
func (cs *CutSolver) sweepBackward(x cdag.VertexID) {
	e := cs.epoch
	pOff, pVal := cs.predOff, cs.predVal
	stack := cs.stack[:0]
	for _, d := range cs.desc {
		for _, p := range pVal[pOff[d]:pOff[d+1]] {
			if p == x || cs.ancMark[p] == e || cs.descMark[p] == e || cs.coMark[p] == e {
				continue
			}
			cs.coMark[p] = e
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pVal[pOff[u]:pOff[u+1]] {
			if p == x || cs.ancMark[p] == e || cs.descMark[p] == e || cs.coMark[p] == e {
				continue
			}
			cs.coMark[p] = e
			stack = append(stack, p)
		}
	}
	cs.stack = stack[:0]
}

// sweepForward stamps coMark with the epoch on every free vertex that is
// reachable from A and has a directed path into D — the only vertices
// stripNetwork asks about.  A breadth-first sweep from A's out-edges stamps
// the free vertices it reaches with −epoch and stops at D; A is
// predecessor-closed, so every successor of a reached vertex is free or in D.
// The reached vertices with a successor in D (the feeders) are compacted into
// the queue's consumed prefix as the sweep goes.  Co-reachability then spreads
// backward from the feeders through −epoch vertices only: a path from a
// reached vertex into D runs through reached vertices up to a feeder.  When
// the sweep reaches nothing — an fft input, any vertex of a reduction tree —
// there are no feeders and no backward pass.
func (cs *CutSolver) sweepForward(x cdag.VertexID) {
	e := cs.epoch
	fwd := -e
	sOff, sVal := cs.succOff, cs.succVal
	pOff, pVal := cs.predOff, cs.predVal

	q := cs.stack[:0]
	for ai := -1; ai < len(cs.anc); ai++ {
		v := x
		if ai >= 0 {
			v = cs.anc[ai]
		}
		for _, w := range sVal[sOff[v]:sOff[v+1]] {
			if w == x || cs.ancMark[w] == e || cs.descMark[w] == e || cs.coMark[w] == fwd {
				continue
			}
			cs.coMark[w] = fwd
			q = append(q, w)
		}
	}
	feeders := 0
	for head := 0; head < len(q); head++ {
		u := q[head]
		feeds := false
		for _, w := range sVal[sOff[u]:sOff[u+1]] {
			if cs.descMark[w] == e {
				feeds = true
			} else if cs.coMark[w] != fwd {
				cs.coMark[w] = fwd
				q = append(q, w)
			}
		}
		if feeds {
			q[feeders] = u // feeders <= head: overwrites a consumed entry
			feeders++
		}
	}

	stack := q[:feeders]
	for _, u := range stack {
		cs.coMark[u] = e
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pVal[pOff[u]:pOff[u+1]] {
			if cs.coMark[p] == fwd {
				cs.coMark[p] = e
				stack = append(stack, p)
			}
		}
	}
	cs.stack = stack[:0]
}

// stripNetwork builds the strip-local network of the explored candidate x
// from the co-reachability marks of a sweep (see buildStrip).
func (cs *CutSolver) stripNetwork(x cdag.VertexID) {
	e := cs.epoch
	f := &cs.strip
	f.resetStage()
	sOff, sVal := cs.succOff, cs.succVal
	stack := cs.stack[:0]

	cnt := int32(0) // strip+boundary vertices materialized so far
	cs.stripVerts = cs.stripVerts[:0]
	// Node ids: super source 0, super sink 1, vIn = 2·local+2, vOut = 2·local+3.

	// Boundary pass over A = {x} ∪ Anc(x).  Successors of x are always
	// outside A (they are descendants), so the generic outside-A test
	// w != x && ancMark[w] != e covers x too.  A vertex of A only becomes a
	// network node when some successor is a descendant or live strip vertex —
	// boundary vertices feeding only dead strip carry no flow.
	for ai := -1; ai < len(cs.anc); ai++ {
		v := x
		if ai >= 0 {
			v = cs.anc[ai]
		}
		succ := sVal[sOff[v]:sOff[v+1]]
		boundary := false
		for _, w := range succ {
			if w != x && cs.ancMark[w] != e && (cs.descMark[w] == e || cs.coMark[w] == e) {
				boundary = true
				break
			}
		}
		if !boundary {
			continue
		}
		cs.mapEp[v] = e
		cs.localOf[v] = cnt
		cs.stripVerts = append(cs.stripVerts, v)
		out := 2*cnt + 3
		f.stageEdge(0, out-1, flowInf) // super source → vIn
		f.stageEdge(out-1, out, 1)     // unit split arc
		cnt++
		for _, w := range succ {
			if w == x || cs.ancMark[w] == e {
				continue
			}
			if cs.descMark[w] == e {
				if cs.tEp[v] != e {
					cs.tEp[v] = e
					f.stageEdge(out, 1, flowInf)
				}
				continue
			}
			if cs.coMark[w] != e {
				continue // dead strip: no path to D
			}
			wl, fresh := cs.stripLocal(w, e, cnt)
			if fresh {
				cnt++
				stack = append(stack, w)
			}
			f.stageEdge(out, 2*wl+2, flowInf)
		}
	}

	// Strip sweep: live strip vertices reachable from the boundary, stopping
	// at D.
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := 2*cs.localOf[u] + 3
		f.stageEdge(out-1, out, 1)
		for _, w := range sVal[sOff[u]:sOff[u+1]] {
			if cs.descMark[w] == e {
				if cs.tEp[u] != e {
					cs.tEp[u] = e
					f.stageEdge(out, 1, flowInf)
				}
				continue
			}
			// A is predecessor-closed, so w is free: strip if it reaches D.
			if cs.coMark[w] != e {
				continue
			}
			wl, fresh := cs.stripLocal(w, e, cnt)
			if fresh {
				cnt++
				stack = append(stack, w)
			}
			f.stageEdge(out, 2*wl+2, flowInf)
		}
	}
	cs.stack = stack[:0]

	f.buildFresh(int(2 + 2*cnt))
}

// lastStripCut returns the canonical minimum wavefront cut of the most recent
// completed (non-aborted) minWavefront solve on this solver: the materialized
// vertices whose vIn is residual-reachable from the super source while their
// vOut is not.  The residual-reachable set of a maximum flow is the minimal
// source side shared by all minimum cuts, independent of which maximum flow
// the solve arrived at.
func (cs *CutSolver) lastStripCut(out []cdag.VertexID) []cdag.VertexID {
	f := &cs.strip
	f.residualReach(0)
	out = out[:0]
	for l, v := range cs.stripVerts {
		if f.reached(int32(2*l+2)) && !f.reached(int32(2*l+3)) {
			out = append(out, v)
		}
	}
	return out
}

// stripLocal returns w's dense network id, assigning next when w is seen for
// the first time this epoch.
func (cs *CutSolver) stripLocal(w cdag.VertexID, e, next int32) (int32, bool) {
	if cs.mapEp[w] == e {
		return cs.localOf[w], false
	}
	cs.mapEp[w] = e
	cs.localOf[w] = next
	cs.stripVerts = append(cs.stripVerts, w)
	return next, true
}

// MinWavefrontAt returns the Lemma 2 lower bound on the size of the minimum
// wavefront induced by x (Section 3.3): the minimum vertex cut separating
// {x} ∪ Anc(x) from Desc(x) when no vertex of Desc(x) may be chosen as a cut
// vertex, and never less than 1, since the wavefront always contains x.
// Every valid convex cut around x has a boundary outside Desc(x) that meets
// every path from {x} ∪ Anc(x) to Desc(x), so its size is at least this cut
// value.  The solve costs time proportional to the candidate's cone boundary
// and free strip, not to the whole graph.
func (cs *CutSolver) MinWavefrontAt(g *cdag.Graph, x cdag.VertexID) int {
	cs.ensureGraph(g)
	cs.explore(x)
	return cs.minWavefront(x)
}

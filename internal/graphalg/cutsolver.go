package graphalg

import (
	"math"
	"sync"

	"cdagio/internal/cdag"
)

// CutSolver is the reusable scratch behind every vertex min-cut computation:
// cone-exploration marks, dense-ID remap tables, and two flowCSR max-flow
// networks.  A solver owns no goroutines and is not safe for concurrent use;
// create one per worker (the w^max search does) or use the package-level
// MinVertexCut / MinDominatorSize / MaxVertexDisjointPaths /
// MinWavefrontLowerBoundStrip wrappers, which draw solvers from an internal
// pool so repeated queries stop paying per-call network construction.
//
// Two solve paths share the scratch:
//
//   - MinVertexCut (and the dominator/disjoint-path wrappers) solve on the
//     full 2|V|+2-node vertex-split network.  The static part — split arcs
//     and CDAG edge arcs — is built once per graph and cached; each call
//     attaches the super source/sink through pre-reserved slack slots,
//     flips uncuttable split capacities, and afterwards restores exactly the
//     arcs the solve dirtied.
//   - MinWavefrontAt solves the Lemma 2 instance strip-locally: the ancestor
//     cone is contracted into the super source (keeping its boundary
//     vertices), the descendant cone into the super sink, and only the free
//     strip between the cones is materialized, so the network — and the
//     Dinic solve on it — scales with the strip instead of with |V|.  See
//     the package documentation for why the contraction is exact.
//
// Bound values, witnesses and returned cut sets are bit-identical to the
// historical per-call flow networks in every mode.
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

	// Warm-start state: the flow paths of the previous minWavefront solve as
	// graph-vertex sequences (warmBuf holds them concatenated, warmOff the
	// boundaries), harvested from the residual network and re-seeded — after
	// trimming to the new candidate's cones — into the next solve's network.
	// Cleared when the solver rebinds to another graph.
	warmBuf  []cdag.VertexID
	warmOff  []int32
	seedArcs []int32 // per-path arc scratch of seedPath

	// strip hosts the per-candidate strip-local networks and the fresh-build
	// fallback of MinVertexCut; full hosts the cached static vertex-split
	// network.
	strip flowCSR
	full  flowCSR

	// Static-network cache state (full).
	staticG  *cdag.Graph
	staticN  int
	staticE  int
	splitArc []int32 // arc id of each vertex's vIn→vOut unit arc
	baseArcs int     // static arc count; per-call arcs live beyond it
	baseLen  []int32 // static row lengths (adjLen reset values)
	extRows  []int32 // rows whose adjLen grew this call
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
	cs.warmBuf = cs.warmBuf[:0]
	cs.warmOff = cs.warmOff[:0]
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
	cs.exploreAnc(x)
	cs.exploreDesc(x)
}

// exploreDesc stamps Desc(x) into the descendant marks and list under the
// epoch opened by exploreAnc; it must follow an exploreAnc(x) call for the
// same candidate.
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

// exploreAnc starts a fresh epoch and stamps Anc(x) into the ancestor marks
// and list.  Vertices are marked before being pushed, so every CDAG edge is
// inspected once and the stack never holds duplicates — on the high-fan-in
// reduction vertices of Krylov CDAGs this halves the traversal's memory
// traffic.  The w^max search explores the ancestor cone alone first: a
// candidate pruned by its early convex cut never pays for the descendant
// cone.
func (cs *CutSolver) exploreAnc(x cdag.VertexID) {
	e := cs.nextEpoch()
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

// minWavefront computes MinWavefrontLowerBound(g, x) for the explored
// candidate on the strip-local network.
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
	w, _ := cs.minWavefrontRun(x, 0, false)
	return w
}

// minWavefrontRun is minWavefront with the PR-6 incremental-flow extensions,
// both individually optional and both value-exact:
//
//   - warm-start path reuse (warm): before solving, the flow paths harvested
//     from the previous solve on this solver are trimmed to the new
//     candidate's cones and re-seeded into the fresh network as an initial
//     feasible flow, and Dinic only augments the difference.  Afterwards the
//     new solve's paths are harvested for the next candidate.
//   - mid-solve abort (need > 0): the Dinic solve runs under the level-cut
//     certificate of maxFlowBounded and stops early when some BFS level cut
//     proves the final wavefront must stay below need.  The second return is
//     true for such an aborted candidate (its exact value is unknown but
//     provably < need); otherwise the returned value is exact.
func (cs *CutSolver) minWavefrontRun(x cdag.VertexID, need int, warm bool) (int, bool) {
	if len(cs.desc) == 0 {
		return 1, false
	}
	seeded := cs.buildStrip(x, warm)
	f := &cs.strip
	var w int
	pruned := false
	if lim := int64(need) - seeded; need > 0 && lim > 0 {
		flow, aborted := f.maxFlowBounded(0, 1, lim)
		if aborted {
			pruned = true
		} else {
			w = int(seeded + flow)
		}
	} else {
		w = int(seeded + f.maxFlow(0, 1))
	}
	if warm {
		cs.harvestPaths()
	}
	if pruned {
		return 0, true
	}
	if w < 1 {
		w = 1
	}
	return w, false
}

// buildStrip builds the strip-local network of the explored candidate x
// (which must have descendants) into cs.strip and, when warm, re-seeds the
// previous solve's flow paths into it.  It returns the units of flow seeded.
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
// them bounds, witnesses, cut sets and warm-start paths, are identical.
func (cs *CutSolver) buildStrip(x cdag.VertexID, warm bool) int64 {
	if cs.forwardCheaper(x) {
		cs.sweepForward(x)
	} else {
		cs.sweepBackward(x)
	}
	return cs.stripNetwork(x, warm)
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
// from the co-reachability marks of a sweep (see buildStrip) and, when warm,
// re-seeds the previous solve's flow paths into it.  It returns the units of
// flow seeded.
func (cs *CutSolver) stripNetwork(x cdag.VertexID, warm bool) int64 {
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

	// Warm start: re-seed the previous solve's surviving path segments as an
	// initial feasible flow.  Any feasible integral flow is a valid starting
	// point for Dinic — augmentation always reaches the (unique) maximum flow
	// value — so the bound is exact regardless of how many segments survive.
	var seeded int64
	if warm {
		for pi := 0; pi+1 < len(cs.warmOff); pi++ {
			seeded += cs.seedPath(x, cs.warmBuf[cs.warmOff[pi]:cs.warmOff[pi+1]], e)
		}
	}
	return seeded
}

// seedPath re-seeds one harvested flow path into the current candidate's
// freshly built strip network, returning the units of flow added (0 or 1).
//
// The previous solve's paths are vertex-disjoint CDAG paths (every network
// vertex carries a unit split arc, so no two paths share any vertex).  For the
// new candidate x with A = {x} ∪ Anc(x) and D = Desc(x): A is closed under
// predecessors, so a path's A-vertices form a prefix; the segment from the
// prefix's last vertex b (which must be a materialized boundary vertex of A)
// to the last vertex before the path first enters D — or to the path's end,
// when that end feeds D directly — is an s→t unit path of the new network:
// s→bIn, the unit split arcs, the edge arcs between consecutive segment
// vertices, and the contracted vOut→t arc of the final vertex.  Vertex-
// disjointness of the original paths guarantees the seeded segments never
// share an arc, so capacities never go negative.  Paths whose segment leaves
// the materialized strip (dead strip for this candidate) or that never touch
// A or reach D are skipped.
func (cs *CutSolver) seedPath(x cdag.VertexID, vs []cdag.VertexID, e int32) int64 {
	f := &cs.strip
	li := -1
	for _, v := range vs {
		if v != x && cs.ancMark[v] != e {
			break
		}
		li++
	}
	if li < 0 || cs.mapEp[vs[li]] != e {
		return 0
	}
	end := -1
	for j := li + 1; j < len(vs); j++ {
		v := vs[j]
		if cs.descMark[v] == e {
			end = j - 1
			break
		}
		if cs.mapEp[v] != e {
			return 0
		}
	}
	if end < 0 {
		// The path never enters D; it is seedable only when its final vertex
		// has a successor in D (its contracted sink arc was staged).
		if cs.tEp[vs[len(vs)-1]] != e {
			return 0
		}
		end = len(vs) - 1
	}

	// Collect the segment's arcs before touching any capacity, so a
	// structurally impossible lookup (defensive: cannot happen for a
	// materialized segment) skips the path without a partial application.
	arcs := cs.seedArcs[:0]
	prevOut := int32(-1)
	for j := li; j <= end; j++ {
		l := cs.localOf[vs[j]]
		in, out := 2*l+2, 2*l+3
		sp := f.findFwdArc(in, out)
		if sp < 0 {
			cs.seedArcs = arcs[:0]
			return 0
		}
		if j == li {
			// The super-source arc s→bIn is staged immediately before b's
			// split arc, so its id is the split arc's minus one pair.
			arcs = append(arcs, sp-2)
		} else {
			ea := f.findFwdArc(prevOut, in)
			if ea < 0 {
				cs.seedArcs = arcs[:0]
				return 0
			}
			arcs = append(arcs, ea)
		}
		arcs = append(arcs, sp)
		prevOut = out
	}
	ta := f.findFwdArc(prevOut, 1)
	if ta < 0 {
		cs.seedArcs = arcs[:0]
		return 0
	}
	arcs = append(arcs, ta)
	for _, a := range arcs {
		f.cap[a]--
		f.cap[a^1]++
	}
	cs.seedArcs = arcs[:0]
	return 1
}

// harvestPaths decomposes the current strip network's flow into the
// vertex-disjoint unit paths it consists of, recorded as graph-vertex
// sequences for the next candidate's warm start.  Flow on a forward arc
// equals its reverse partner's capacity (reverse arcs start at zero), and
// every materialized vertex carries at most one unit through its split arc,
// so each unit walks a unique vertex sequence from a super-source arc to the
// super sink.  The walk only reads capacities; the residual network — and
// therefore the canonical cut recovered from it — is untouched.
func (cs *CutSolver) harvestPaths() {
	f := &cs.strip
	cs.warmBuf = cs.warmBuf[:0]
	cs.warmOff = append(cs.warmOff[:0], 0)
	base := f.adjOff[0]
	for _, ai := range f.adjArc[base : base+f.adjLen[0]] {
		if ai&1 != 0 || f.cap[ai^1] == 0 {
			continue
		}
		node := f.to[ai] // vIn of the path's first vertex
		for node > 1 {
			cs.warmBuf = append(cs.warmBuf, cs.stripVerts[(node-2)/2])
			out := node + 1
			next := int32(-1)
			ob := f.adjOff[out]
			for _, oa := range f.adjArc[ob : ob+f.adjLen[out]] {
				if oa&1 == 0 && f.cap[oa^1] > 0 {
					next = f.to[oa]
					break
				}
			}
			node = next
		}
		cs.warmOff = append(cs.warmOff, int32(len(cs.warmBuf)))
	}
}

// findFwdArc returns the id of the forward (even) arc u→v, or −1.  Rows of
// fresh-built networks interleave forward arcs with residual partners of
// incoming arcs; the parity check keeps the scan unambiguous.
func (f *flowCSR) findFwdArc(u, v int32) int32 {
	base := f.adjOff[u]
	for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
		if ai&1 == 0 && f.to[ai] == v {
			return ai
		}
	}
	return -1
}

// lastStripCut returns the canonical minimum wavefront cut of the most recent
// completed (non-aborted) minWavefront solve on this solver: the materialized
// vertices whose vIn is residual-reachable from the super source while their
// vOut is not.  The residual-reachable set of a maximum flow is the minimal
// source side shared by all minimum cuts — independent of which maximum flow
// the solve arrived at — so the set is identical whether the solve was warm-
// started or cold; the warm/cold equivalence tests assert exactly that.
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

// MinWavefrontAt returns MinWavefrontLowerBound(g, x) computed on the
// strip-local engine: identical value, cost proportional to the candidate's
// cone boundary and free strip instead of the whole graph.
func (cs *CutSolver) MinWavefrontAt(g *cdag.Graph, x cdag.VertexID) int {
	cs.ensureGraph(g)
	cs.explore(x)
	return cs.minWavefront(x)
}

// ensureStatic builds (or revalidates) the cached static vertex-split network
// for g: unit split arcs vIn→vOut plus infinite-capacity edge arcs
// vOut→wIn, with slack reserved in every row for the per-call super
// source/sink attachments.  Node numbering matches the historical network:
// vIn = 2v, vOut = 2v+1, super source 2n, super sink 2n+1.
func (cs *CutSolver) ensureStatic(g *cdag.Graph) {
	n, e := g.NumVertices(), g.NumEdges()
	if cs.staticG == g && cs.staticN == n && cs.staticE == e {
		return
	}
	cs.staticG, cs.staticN, cs.staticE = g, n, e
	f := &cs.full
	nn := 2*n + 2
	f.ensureNodes(nn)
	f.trackDirty = true
	f.dirty = f.dirty[:0]
	cs.extRows = cs.extRows[:0]

	// Row capacities: static arc count plus slack — one slot per vIn row (the
	// residual of super-source→vIn), one per vOut row (vOut→super-sink), and
	// n each for the super source and sink rows.
	f.adjOff = growInt32(f.adjOff[:0], nn+1)
	f.adjLen = growInt32(f.adjLen[:0], nn)
	f.adjOff[0] = 0
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		f.adjOff[2*v+1] = f.adjOff[2*v] + int32(1+g.InDegree(id)) + 1
		f.adjOff[2*v+2] = f.adjOff[2*v+1] + int32(1+g.OutDegree(id)) + 1
	}
	f.adjOff[nn-1] = f.adjOff[nn-2] + int32(n)
	f.adjOff[nn] = f.adjOff[nn-1] + int32(n)

	na := 2 * (n + e)
	cs.baseArcs = na
	// addExt's appends round the int32 and int64 arenas to different
	// capacities, so each must be checked.
	if cap(f.to) < na || cap(f.cap) < na {
		f.to = make([]int32, na)
		f.cap = make([]int64, na)
	} else {
		f.to = f.to[:na]
		f.cap = f.cap[:na]
	}
	f.adjArc = growInt32(f.adjArc[:0], int(f.adjOff[nn]))
	cs.splitArc = growInt32(cs.splitArc[:0], n)
	for i := range f.adjLen {
		f.adjLen[i] = 0
	}
	place := func(u, a int32) {
		f.adjArc[f.adjOff[u]+f.adjLen[u]] = a
		f.adjLen[u]++
	}
	succOff, succVal := g.SuccessorCSR()
	arc := int32(0)
	for v := 0; v < n; v++ {
		vIn, vOut := int32(2*v), int32(2*v+1)
		cs.splitArc[v] = arc
		f.to[arc], f.cap[arc] = vOut, 1
		f.to[arc+1], f.cap[arc+1] = vIn, 0
		place(vIn, arc)
		place(vOut, arc+1)
		arc += 2
		for _, w := range succVal[succOff[v]:succOff[v+1]] {
			wIn := int32(2 * w)
			f.to[arc], f.cap[arc] = wIn, flowInf
			f.to[arc+1], f.cap[arc+1] = vOut, 0
			place(vOut, arc)
			place(wIn, arc+1)
			arc += 2
		}
	}
	f.cap0 = append(f.cap0[:0], f.cap[:na]...)
	cs.baseLen = append(cs.baseLen[:0], f.adjLen...)
}

// resetFull restores the cached static network to its pristine state:
// capacities of the arcs the previous solve dirtied, row lengths of the rows
// that grew extension arcs, and the arc arena truncated to the static part.
func (cs *CutSolver) resetFull() {
	f := &cs.full
	for _, ai := range f.dirty {
		if int(ai) < cs.baseArcs {
			f.cap[ai] = f.cap0[ai]
			f.cap[ai^1] = f.cap0[ai^1]
		}
	}
	f.dirty = f.dirty[:0]
	for _, u := range cs.extRows {
		f.adjLen[u] = cs.baseLen[u]
	}
	cs.extRows = cs.extRows[:0]
	f.to = f.to[:cs.baseArcs]
	f.cap = f.cap[:cs.baseArcs]
}

// addExt attaches a per-call infinite-capacity arc u→v into the slack slots
// of the cached static network.
func (cs *CutSolver) addExt(u, v int32) {
	f := &cs.full
	a := int32(len(f.to))
	f.to = append(f.to, v, u)
	f.cap = append(f.cap, flowInf, 0)
	f.adjArc[f.adjOff[u]+f.adjLen[u]] = a
	f.adjLen[u]++
	f.adjArc[f.adjOff[v]+f.adjLen[v]] = a + 1
	f.adjLen[v]++
	cs.extRows = append(cs.extRows, u, v)
}

// MinVertexCut is the reusable-scratch equivalent of the package-level
// MinVertexCut: same contract, same cut sets, no per-call network build on
// repeated queries against the same graph.
func (cs *CutSolver) MinVertexCut(g *cdag.Graph, sources, targets []cdag.VertexID, opts CutOptions) (int, []cdag.VertexID) {
	f, res := cs.cutNetwork(g, sources, targets, opts)
	if f == nil {
		return res, nil
	}
	s := int32(2 * cs.n)
	return cs.splitCut(f, f.maxFlow(s, s+1))
}

// cutNetwork prepares the vertex-split network of a MinVertexCut query, with
// super source 2n and super sink 2n+1.  For a degenerate query it returns a
// nil network and the query's answer instead.
func (cs *CutSolver) cutNetwork(g *cdag.Graph, sources, targets []cdag.VertexID, opts CutOptions) (*flowCSR, int) {
	cs.ensureGraph(g)
	n := cs.n
	if n == 0 || len(sources) == 0 || len(targets) == 0 {
		return nil, 0
	}
	// Mark targets (for the degenerate-overlap check) and detect duplicate
	// endpoints, which the slack-slot fast path cannot host.
	te := cs.nextEpoch()
	dups := false
	for _, tgt := range targets {
		if cs.seenMark[tgt] == te {
			dups = true
		}
		cs.seenMark[tgt] = te
	}
	// A vertex that is both a source and a target makes separation impossible
	// unless it can be cut; handle the degenerate overlap up front.
	for _, s := range sources {
		if cs.seenMark[s] == te && opts.uncuttable(s) {
			return nil, -1
		}
	}
	se := cs.nextEpoch()
	for _, src := range sources {
		if cs.seenMark[src] == se {
			dups = true
		}
		cs.seenMark[src] = se
	}

	var f *flowCSR
	s, t := int32(2*n), int32(2*n+1)
	if dups {
		f = cs.freshVertexSplit(g, sources, targets, opts)
	} else {
		cs.ensureStatic(g)
		cs.resetFull()
		f = &cs.full
		// Flip the split-arc capacities of the uncuttable vertices.  The
		// precomputed-set path reads the bitmap directly — a branch per
		// vertex, no per-vertex predicate call (ROADMAP item d); the
		// predicate path is kept for callers without a materialized set.
		if set := opts.UncuttableSet; set != nil {
			bm := set.Bitmap()
			fn := opts.Uncuttable
			for v := 0; v < n; v++ {
				if (v < len(bm) && bm[v]) || (fn != nil && fn(cdag.VertexID(v))) {
					a := cs.splitArc[v]
					f.cap[a] = flowInf
					f.dirty = append(f.dirty, a)
				}
			}
		} else if opts.Uncuttable != nil {
			for v := 0; v < n; v++ {
				if opts.Uncuttable(cdag.VertexID(v)) {
					a := cs.splitArc[v]
					f.cap[a] = flowInf
					f.dirty = append(f.dirty, a)
				}
			}
		}
		for _, src := range sources {
			cs.addExt(s, int32(2*src))
		}
		for _, tgt := range targets {
			cs.addExt(int32(2*tgt)+1, t)
		}
	}
	return f, 0
}

// splitCut recovers MinVertexCut's answer from a cutNetwork network after a
// maximum flow of the given value: a vertex v is a cut vertex when its vIn is
// reachable from the source side of the residual graph but its vOut is not.
func (cs *CutSolver) splitCut(f *flowCSR, flow int64) (int, []cdag.VertexID) {
	if flow >= flowInf {
		return -1, nil
	}
	f.residualReach(int32(2 * cs.n))
	var cut []cdag.VertexID
	for v := 0; v < cs.n; v++ {
		if f.reached(int32(2*v)) && !f.reached(int32(2*v+1)) {
			cut = append(cut, cdag.VertexID(v))
		}
	}
	return int(flow), cut
}

// freshVertexSplit builds a one-off vertex-split network in the strip scratch
// with exactly the historical arc emission order; it hosts the rare calls the
// cached network cannot (duplicate source/target entries).
func (cs *CutSolver) freshVertexSplit(g *cdag.Graph, sources, targets []cdag.VertexID, opts CutOptions) *flowCSR {
	n := cs.n
	f := &cs.strip
	f.resetStage()
	succOff, succVal := g.SuccessorCSR()
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		capV := int64(1)
		if opts.uncuttable(id) {
			capV = flowInf
		}
		f.stageEdge(int32(2*v), int32(2*v+1), capV)
		for _, w := range succVal[succOff[v]:succOff[v+1]] {
			f.stageEdge(int32(2*v+1), int32(2*w), flowInf)
		}
	}
	s, t := int32(2*n), int32(2*n+1)
	for _, src := range sources {
		f.stageEdge(s, int32(2*src), flowInf)
	}
	for _, tgt := range targets {
		f.stageEdge(int32(2*tgt)+1, t, flowInf)
	}
	f.buildFresh(2*n + 2)
	return f
}

// MaxVertexDisjointPaths is MaxVertexDisjointPaths on this solver's scratch.
func (cs *CutSolver) MaxVertexDisjointPaths(g *cdag.Graph, sources, targets []cdag.VertexID) int {
	k, _ := cs.MinVertexCut(g, sources, targets, CutOptions{})
	return k
}

// solverPool recycles CutSolvers behind the package-level wrappers, so
// repeated cut queries — the dominator sweeps of the 2S-partition bound, the
// per-piece wavefronts of the Theorem 8/9 decompositions — reuse networks and
// traversal scratch instead of rebuilding them per call.
var solverPool = sync.Pool{New: func() any { return NewCutSolver() }}

func acquireSolver() *CutSolver   { return solverPool.Get().(*CutSolver) }
func releaseSolver(cs *CutSolver) { solverPool.Put(cs) }

// MinWavefrontLowerBoundStrip returns MinWavefrontLowerBound(g, x) computed
// on the pooled strip-local engine.  The value is always identical to the
// reference full-network computation; only the cost differs.
func MinWavefrontLowerBoundStrip(g *cdag.Graph, x cdag.VertexID) int {
	cs := acquireSolver()
	defer releaseSolver(cs)
	return cs.MinWavefrontAt(g, x)
}

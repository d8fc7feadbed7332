package graphalg

import "math"

// flowCSR is the max-flow core behind every vertex-cut computation in this
// package: a Dinic solver over a flat CSR arc array.  Arcs are stored in
// forward/reverse pairs (arc i and i^1), and each node's arc ids occupy one
// contiguous run of adjArc, so the hot BFS/DFS loops walk flat memory instead
// of chasing a slice-of-slices.
//
// The struct is a reusable scratch: every slice grows monotonically and is
// recycled across solves, so repeated solves (the w^max candidate search, the
// dominator sweeps) allocate nothing after warm-up.  Two reset disciplines
// keep the recycling cheap:
//
//   - BFS levels, DFS current-arc cursors and residual-reachability marks are
//     epoch-stamped: an entry is valid only when its stamp matches the current
//     epoch/phase counter, so starting a new solve is a counter increment, not
//     an O(nodes) clear.
//   - For networks that are cached across solves (the static vertex-split
//     network of CutSolver), the solver records every arc whose capacity an
//     augmenting path changed; restoring pristine capacities then touches only
//     those dirty arcs instead of copying the whole capacity array.
//
// Networks are built either freshly per solve from a staged edge list
// (buildFresh, used by the strip-local wavefront instances, whose shape
// changes with every candidate) or once per graph with per-row slack for
// per-solve extension arcs (CutSolver's static network).  In both cases each
// row's arcs appear in global insertion order — exactly the order the
// historical per-node append lists produced — so augmenting-path selection,
// residual graphs, and therefore returned cut sets are bit-identical to the
// previous slice-of-slices engine.
type flowCSR struct {
	n int // current node count

	// Arc arena: forward arc i and its residual i^1.
	to  []int32
	cap []int64

	// CSR adjacency: row u's arc ids are adjArc[adjOff[u] : adjOff[u]+adjLen[u]].
	// Cached static networks reserve slack beyond adjLen for per-solve
	// extension arcs (super source/sink attachments).
	adjOff []int32
	adjLen []int32
	adjArc []int32

	// Staged edges compiled by buildFresh.
	eu, ev []int32
	ecap   []int64

	// Epoch-stamped traversal scratch.  level/levelEp: BFS level graph,
	// valid when levelEp[u] == epoch.  iter/iterEp: DFS current-arc cursor,
	// valid when iterEp[u] == phase.  seenEp: residual reachability, valid
	// when seenEp[u] == epoch.
	epoch   int32
	phase   int32
	level   []int32
	levelEp []int32
	iter    []int32
	iterEp  []int32
	seenEp  []int32
	queue   []int32
	stack   []int32

	// Iterative augmenting-DFS path: the arc taken into each node and the
	// node it was taken from.
	pathArc  []int32
	pathNode []int32

	// Dirty-arc tracking for cached networks: forward arc ids whose capacity
	// the current solve changed.  Restoration from cap0 is idempotent, so the
	// list may contain duplicates.
	trackDirty bool
	dirty      []int32
	cap0       []int64

	// Per-BFS-level residual capacity sums, the scratch of the level-cut
	// upper-bound certificate of maxFlowBounded.
	cutSums []int64
}

const flowInf = int64(1) << 60

// ensureNodes grows the per-node scratch to cover n nodes and sets the
// network's node count.  Grown entries are zero, which can never equal a
// future epoch/phase stamp (the counters only move forward), so no clearing
// is needed.
func (f *flowCSR) ensureNodes(n int) {
	f.n = n
	f.level = growInt32(f.level, n)
	f.levelEp = growInt32(f.levelEp, n)
	f.iter = growInt32(f.iter, n)
	f.iterEp = growInt32(f.iterEp, n)
	f.seenEp = growInt32(f.seenEp, n)
}

// growInt32 returns s extended to length n, preserving existing entries and
// zero-filling the growth.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		for i := old; i < n; i++ {
			s[i] = 0
		}
		return s
	}
	grown := make([]int32, n)
	copy(grown, s)
	return grown
}

// bumpEpoch advances the level/seen epoch, resetting the stamp arrays on the
// (practically unreachable) int32 rollover so stale stamps can never collide.
func (f *flowCSR) bumpEpoch() int32 {
	f.epoch++
	if f.epoch == math.MaxInt32 {
		for i := range f.levelEp {
			f.levelEp[i] = 0
		}
		for i := range f.seenEp {
			f.seenEp[i] = 0
		}
		f.epoch = 1
	}
	return f.epoch
}

// bumpPhase advances the DFS current-arc phase with the same rollover guard.
func (f *flowCSR) bumpPhase() int32 {
	f.phase++
	if f.phase == math.MaxInt32 {
		for i := range f.iterEp {
			f.iterEp[i] = 0
		}
		f.phase = 1
	}
	return f.phase
}

// resetStage empties the staged edge list for a fresh build.
func (f *flowCSR) resetStage() {
	f.eu = f.eu[:0]
	f.ev = f.ev[:0]
	f.ecap = f.ecap[:0]
}

// stageEdge stages the directed edge u→v with the given capacity; buildFresh
// compiles the staged list into the CSR arrays.
func (f *flowCSR) stageEdge(u, v int32, capacity int64) {
	f.eu = append(f.eu, u)
	f.ev = append(f.ev, v)
	f.ecap = append(f.ecap, capacity)
}

// buildFresh compiles the staged edges into a slack-free CSR network over n
// nodes via a two-pass counting sort.  Each row's arcs end up in global
// staging order, matching what per-node append lists would hold.
func (f *flowCSR) buildFresh(n int) {
	f.ensureNodes(n)
	f.trackDirty = false
	ne := len(f.eu)
	na := 2 * ne
	if cap(f.to) < na {
		f.to = make([]int32, na)
		f.cap = make([]int64, na)
		f.adjArc = make([]int32, na)
	} else {
		f.to = f.to[:na]
		f.cap = f.cap[:na]
		f.adjArc = f.adjArc[:na]
	}
	f.adjOff = growInt32(f.adjOff[:0], n+1)
	f.adjLen = growInt32(f.adjLen[:0], n)
	for i := range f.adjLen {
		f.adjLen[i] = 0
	}
	for i := 0; i < ne; i++ {
		f.adjLen[f.eu[i]]++
		f.adjLen[f.ev[i]]++
	}
	f.adjOff[0] = 0
	for u := 0; u < n; u++ {
		f.adjOff[u+1] = f.adjOff[u] + f.adjLen[u]
		f.adjLen[u] = 0
	}
	for i := 0; i < ne; i++ {
		u, v := f.eu[i], f.ev[i]
		a := int32(2 * i)
		f.to[a] = v
		f.cap[a] = f.ecap[i]
		f.to[a+1] = u
		f.cap[a+1] = 0
		f.adjArc[f.adjOff[u]+f.adjLen[u]] = a
		f.adjLen[u]++
		f.adjArc[f.adjOff[v]+f.adjLen[v]] = a + 1
		f.adjLen[v]++
	}
}

// maxFlow computes the maximum s→t flow with Dinic's algorithm: BFS level
// graphs with epoch-stamped levels, then blocking flows found by an iterative
// current-arc DFS.  The augmenting-path selection order is identical to the
// historical recursive implementation, so residual graphs (and the cuts
// recovered from them) are bit-for-bit reproducible.
//
// Each BFS stops at the first dequeued node whose level is at least the
// sink's: every node of the sink's level is labeled by then, and a node past
// it lies on no level-graph path to the sink, so blockingFlow pushes the same
// augmenting paths in the same order as after a BFS over the whole
// residual-reachable set.
func (f *flowCSR) maxFlow(s, t int32) int64 {
	if s == t {
		return flowInf
	}
	var total int64
	for {
		e := f.bumpEpoch()
		f.levelEp[s] = e
		f.level[s] = 0
		q := f.queue[:0]
		q = append(q, s)
		lt := int32(math.MaxInt32) // sink level once t is labeled
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			if f.level[u] >= lt {
				break
			}
			lu := f.level[u] + 1
			base := f.adjOff[u]
			for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
				v := f.to[ai]
				if f.cap[ai] > 0 && f.levelEp[v] != e {
					f.levelEp[v] = e
					f.level[v] = lu
					if v == t {
						lt = lu
					}
					q = append(q, v)
				}
			}
		}
		f.queue = q[:0]
		if lt == math.MaxInt32 {
			return total
		}
		total += f.blockingFlow(s, t, e)
	}
}

// maxFlowBounded is maxFlow with a mid-solve abort: each BFS phase
// additionally evaluates a residual level-cut certificate, and the solve stops
// as soon as the certificate proves the final max flow must stay below lim
// (never, when lim ≤ 0).  It returns (flow, false) with the exact max flow
// when no certificate fired — bit-identical to maxFlow, since the certificate
// only reads the network — or (ub, true) where ub is a proven upper bound on
// the max flow with ub < lim.
//
// The certificate: after a BFS from s assigns levels, every residual arc
// (cap > 0) out of a reached node leads to a reached node at most one level
// deeper.  For any k with 0 ≤ k < level(t), the prefix P_k = {v : level(v) ≤ k}
// contains s, excludes t, and the only residual arcs leaving it run from level
// k to level k+1 — an arc u→v with cap > 0 and level(v) ≤ level(u) stays
// inside or re-enters the prefix, and an arc into an unreached v would have
// made v reached.  Each P_k is therefore a valid s–t cut of the residual
// network, so the flow still to come is at most min_k Σ cap(k→k+1 arcs), and
// the final max flow is at most the flow already sent plus that minimum.
// Reverse arcs need no special accounting: a reverse arc holding residual
// capacity (undoing flow on its partner) is an ordinary capacity-bearing arc
// of the residual network and is summed like any other when it crosses a
// level; the bound stays exact because the cut argument only relies on every
// s→t residual path crossing each prefix once.  Sums saturate at flowInf
// after every addition: the infinite arcs of the vertex-split networks would
// otherwise overflow, and a row of several of them would wrap negative.
//
// The BFS stops at the sink's level exactly as maxFlow's does, and it builds
// the sums as it scans: when u at level k is scanned, an arc with cap > 0 to
// a node v either labels v at level k+1 or finds v already labeled at a level
// ≤ k+1, so the arcs that cross from level k to k+1 are exactly the scanned
// arcs whose head sits at level k+1.  Every level below the sink's is scanned
// in full before the BFS stops, so the sums are complete.
func (f *flowCSR) maxFlowBounded(s, t int32, lim int64) (int64, bool) {
	if s == t {
		return flowInf, false
	}
	var total int64
	for {
		e := f.bumpEpoch()
		f.levelEp[s] = e
		f.level[s] = 0
		q := f.queue[:0]
		q = append(q, s)
		sums := f.cutSums[:0] // sums[k]: residual capacity from level k to k+1
		lt := int32(math.MaxInt32)
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			k := f.level[u]
			if k >= lt {
				break
			}
			if int(k) == len(sums) {
				sums = append(sums, 0)
			}
			lu := k + 1
			base := f.adjOff[u]
			for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
				c := f.cap[ai]
				if c <= 0 {
					continue
				}
				v := f.to[ai]
				if f.levelEp[v] != e {
					f.levelEp[v] = e
					f.level[v] = lu
					if v == t {
						lt = lu
					}
					q = append(q, v)
				} else if f.level[v] != lu {
					continue
				}
				if sums[k] += c; sums[k] > flowInf {
					sums[k] = flowInf
				}
			}
		}
		f.queue = q[:0]
		f.cutSums = sums[:0]
		if lt == math.MaxInt32 {
			return total, false
		}
		rem := flowInf
		for _, sum := range sums {
			if sum < rem {
				rem = sum
			}
		}
		if total+rem < lim {
			return total + rem, true
		}
		total += f.blockingFlow(s, t, e)
	}
}

// blockingFlow sends augmenting paths along the level graph of epoch e until
// none remain, emulating the classical recursive current-arc DFS with an
// explicit stack: recursion depth on long-path CDAGs (a million-vertex Jacobi
// chain) would otherwise be O(V).
func (f *flowCSR) blockingFlow(s, t, e int32) int64 {
	ph := f.bumpPhase()
	var total int64
	pathA := f.pathArc[:0]
	pathN := f.pathNode[:0]
	u := s
	for {
		if u == t {
			// Augment: the bottleneck equals what the recursive descent's
			// narrowing limit would have delivered at t.
			push := flowInf
			for _, ai := range pathA {
				if f.cap[ai] < push {
					push = f.cap[ai]
				}
			}
			for _, ai := range pathA {
				f.cap[ai] -= push
				f.cap[ai^1] += push
				if f.trackDirty {
					f.dirty = append(f.dirty, ai)
				}
			}
			total += push
			// Restart the descent from s with current-arc cursors preserved,
			// exactly as the recursive unwinding did.
			pathA = pathA[:0]
			pathN = pathN[:0]
			u = s
			continue
		}
		var it int32
		if f.iterEp[u] == ph {
			it = f.iter[u]
		}
		base := f.adjOff[u]
		rl := f.adjLen[u]
		advanced := false
		for ; it < rl; it++ {
			ai := f.adjArc[base+it]
			v := f.to[ai]
			if f.cap[ai] > 0 && f.levelEp[v] == e && f.level[v] == f.level[u]+1 {
				f.iter[u] = it
				f.iterEp[u] = ph
				pathA = append(pathA, ai)
				pathN = append(pathN, u)
				u = v
				advanced = true
				break
			}
		}
		if !advanced {
			f.iter[u] = it
			f.iterEp[u] = ph
			if u == s {
				break
			}
			// Dead end: retreat and move the parent's cursor past the arc
			// that led here (the recursive version's iter[u]++ on pushed==0).
			p := pathN[len(pathN)-1]
			pathN = pathN[:len(pathN)-1]
			pathA = pathA[:len(pathA)-1]
			f.iter[p]++
			u = p
		}
	}
	f.pathArc = pathA[:0]
	f.pathNode = pathN[:0]
	return total
}

// residualReach marks every node reachable from s in the residual network
// with a fresh epoch; query the marks with reached.  The traversal reuses the
// solver's stack and stamp arrays, so repeated cut recoveries (the dominator
// sweeps of the 2S-partition bound) allocate nothing.
func (f *flowCSR) residualReach(s int32) {
	e := f.bumpEpoch()
	st := f.stack[:0]
	f.seenEp[s] = e
	st = append(st, s)
	for len(st) > 0 {
		u := st[len(st)-1]
		st = st[:len(st)-1]
		base := f.adjOff[u]
		for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
			v := f.to[ai]
			if f.cap[ai] > 0 && f.seenEp[v] != e {
				f.seenEp[v] = e
				st = append(st, v)
			}
		}
	}
	f.stack = st[:0]
}

// reached reports whether residualReach marked node u.
func (f *flowCSR) reached(u int32) bool { return f.seenEp[u] == f.epoch }

package graphalg

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cdagio/internal/cdag"
	"cdagio/internal/fault"
)

// WMaxOptions configures the w^max candidate search of
// MaxMinWavefrontLowerBoundCtx.  Neither knob changes the result: bound value
// and witness vertex are identical for every worker count and pool.
type WMaxOptions struct {
	// Concurrency is the number of worker goroutines scanning candidates, at
	// most: a pass starts no more than Pool's solver limit, when it has one.
	// Zero or negative selects runtime.GOMAXPROCS(0).
	Concurrency int
	// Pool supplies the per-worker CutSolvers.  Workers of a search draw
	// their solver from it and return it afterwards, so searches sharing a
	// pool (repeated analyses through one cdagio.Workspace) amortize the
	// solvers' networks and scratch.  A nil pool allocates fresh solvers for
	// the search.  A pool bound to another graph is ignored.
	Pool *SolverPool
}

// packEntry encodes a (bound, candidate index) pair into one int64 so the
// search can maintain "largest bound, earliest candidate attaining it" with a
// single atomic CAS-max: the bound occupies the high 32 bits and the
// bit-inverted index the low 32, making the packed order exactly "larger
// bound first, then smaller index".  The same packing turns the prune test
// into one comparison: a candidate with upper bound u at index i is
// irrelevant — it can neither raise the bound nor steal the witness — exactly
// when packEntry(u, i) < best, which covers both u < bound and the tie
// u == bound at a later index.
func packEntry(bound int, idx int) int64 {
	return int64(bound)<<32 | int64(math.MaxInt32-int32(idx))
}

// unpackEntry inverts packEntry.
func unpackEntry(e int64) (bound int, idx int) {
	return int(e >> 32), int(math.MaxInt32 - int32(e&0xffffffff))
}

// needAgainst returns the smallest bound value candidate index i must attain
// to matter against the packed best entry: packEntry(v, i) >= best exactly
// when v >= needAgainst(best, i).  A candidate earlier than the incumbent
// witness survives a tie (it would steal the witness), a later one must
// strictly beat the bound.  Any solve whose value provably falls below this
// threshold can be aborted without affecting the packed maximum.
func needAgainst(best int64, i int) int {
	bound, idx := unpackEntry(best)
	if i <= idx {
		return bound
	}
	return bound + 1
}

const (
	// seedSample is the size of the degree-ranked sample the seed pass
	// solves before any other candidate; a scan of at most this many
	// candidates is the seed pass alone.
	seedSample = 32
	// boundBlock is how many consecutive candidates a bound-pass worker
	// claims at once, so workers write their keys into separate 1 KiB runs
	// of ub instead of interleaved entries that share cache lines.
	boundBlock = 256
)

// topByDegree returns the indices of the (up to) k candidates of largest
// in+out degree, strongest first, ties broken by the smaller candidate index.
// That is the ranking wavefront.TopCandidates applies to vertex IDs, so on a
// full scan (candidate index == vertex ID) it selects exactly
// TopCandidates(g, k), in the same order.  The ranking is a total order, so
// the first j entries of a top-k list are the top-j list for every j ≤ k.
func topByDegree(g *cdag.Graph, candidates []cdag.VertexID, k int) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	sOff, _, pOff, _ := g.AdjacencyCSR()
	type seed struct {
		deg int64
		idx int
	}
	// Bounded insertion sort: a candidate enters only if it beats the
	// weakest kept entry, and equal degrees never overtake an earlier index.
	seeds := make([]seed, 0, k)
	for i, x := range candidates {
		d := (sOff[x+1] - sOff[x]) + (pOff[x+1] - pOff[x])
		if len(seeds) == k && d <= seeds[len(seeds)-1].deg {
			continue
		}
		pos := len(seeds)
		if pos < k {
			seeds = append(seeds, seed{})
		} else {
			pos--
		}
		for pos > 0 && seeds[pos-1].deg < d {
			seeds[pos] = seeds[pos-1]
			pos--
		}
		seeds[pos] = seed{d, i}
	}
	idxs := make([]int, len(seeds))
	for j, s := range seeds {
		idxs[j] = s.idx
	}
	return idxs
}

// MaxMinWavefrontLowerBoundCtx returns max_x of the min-cut wavefront bound
// at x (CutSolver.MinWavefrontAt) over the candidate vertices (all vertices
// when candidates is nil) and the first candidate attaining it: a lower bound
// on w^max_G from Section 3.3, which feeds Lemma 2.  It is a best-first
// search in three passes, each parallel over per-worker CutSolver scratch:
//
//  1. Seed pass: solve the candidates of largest in+out degree, at most 32
//     (topByDegree), so the incumbent starts at (or near) the final maximum.
//     A scan of at most 32 candidates — cdagd's and cdagx's default samples —
//     ends here.
//  2. Bound pass: give every other candidate a key, an upper bound on its
//     value: the smaller of two schedule wavefronts (scheduleWavefrontUB)
//     and, unless those already put it below the incumbent, the boundary of
//     its earliest convex cut, which costs one ancestor-cone walk.
//  3. Solve pass: visit the candidates whose key still reaches the incumbent
//     in decreasing key order, then by index (keyOrder), and stop at the
//     first key below the incumbent.  Each walks its descendant cone and
//     prunes on its late bound first; only a survivor walks its ancestor
//     cone again and pays for an abortable Dinic solve.
//
// When a bound pass follows, every vertex also gets the interval of the
// source ranks that reach it (see spans), and the late bound and the
// backward co-reachability sweep of the seed and solve passes skip every
// vertex whose interval misses the candidate's: no such vertex is reachable
// from the candidate's ancestor cone.  On butterflies and trees that leaves
// a late bound of 1, and a candidate that cannot beat the incumbent is
// pruned before its second cone walk.
//
// When those source intervals also come out exact, as on butterflies and
// reduction trees, every vertex gets the interval of the sink ranks it
// reaches and the sizes of its two cones as well.  The early bound then
// skips every ancestor whose successors outside the ancestor cone all have
// sink intervals that miss the candidate's: none of them reaches the
// candidate's descendant cone.  And
// the bound pass keys each candidate from its smaller cone: the ancestor
// cone with the early bound, or the descendant cone with the late bound,
// which is a key when it falls below the incumbent.  On a butterfly both are
// 1, so a candidate that cannot beat the incumbent is pruned without
// touching its larger cone.  On any other graph the scan computes no sink
// intervals and no cone sizes.
//
// The result is exactly that of a serial scan solving every candidate in
// order and keeping the first maximizer — the same bound value and the same
// witness vertex — independent of worker count and timing.  Pruning compares
// packed (upper bound, candidate index) entries against the packed
// best-so-far (see packEntry): a candidate is skipped only when it provably
// cannot raise the bound AND cannot displace the witness — either its upper
// bound is strictly below the established best, or it could at most tie it at
// a later candidate index than a bound-attaining candidate already solved.
// Skipped candidates therefore never affect the packed maximum the search
// returns.  The passes and the key order decide only how soon the incumbent
// grows, never what it ends at.
//
// The scan checks ctx before every candidate of every pass, and again inside
// a candidate before its second cone walk, and returns ctx.Err() promptly
// once the context is cancelled.  Individual Dinic solves stay atomic:
// cancellation latency is bounded by the worker count times the cost of one
// candidate, never by the length of the candidate list.  A panic inside a
// worker surfaces as a *fault.PanicError.
func MaxMinWavefrontLowerBoundCtx(ctx context.Context, g *cdag.Graph, candidates []cdag.VertexID, opts WMaxOptions) (int, cdag.VertexID, error) {
	if err := ctx.Err(); err != nil {
		return 0, cdag.InvalidVertex, err
	}
	// Compile any staged edges into the CSR arrays before the workers start:
	// the lazy materialization is not synchronized.
	g.Materialize()
	// A pool bound to another graph would hand out solvers whose cached CSR
	// views index the wrong adjacency; ignore it rather than silently search
	// the wrong graph (fresh solvers are merely slower, never wrong).  Fresh
	// solvers go through a pool of the scan's own, so the passes share them.
	pool := opts.Pool
	if pool == nil || pool.g != g {
		pool = NewSolverPool(g)
	}
	if candidates == nil {
		candidates = g.Vertices()
	}
	if len(candidates) == 0 {
		return 0, cdag.InvalidVertex, nil
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	nc := len(candidates)
	seedIdx := topByDegree(g, candidates, seedSample)
	// ub[i] is candidate i's key, an upper bound on its value, or −1 once the
	// seed pass has settled it.  The demand-driven schedule and the intervals
	// only pay off when a bound pass follows; without one, sources and sinks
	// are empty and filter nothing.  sinks is also empty unless the source
	// intervals come out exact.
	ub, sources, sinks := scheduleWavefrontUB(g, candidates, len(seedIdx) < nc)
	sOff, _ := g.SuccessorCSR()

	// best holds packEntry(bound, index of the earliest candidate attaining
	// it) and only ever increases in packed order.  Pruning a candidate when
	// packEntry(itsUpperBound, itsIndex) < best is exact: the candidate's
	// true bound can neither exceed its upper bound nor — on a tie — displace
	// an earlier witness, so the final packed maximum is unchanged whether or
	// not it is solved.  That makes bound and witness independent of worker
	// count and timing even though the set of solved candidates is not.
	var best atomic.Int64
	record := func(w, i int) {
		e := packEntry(w, i)
		for {
			cur := best.Load()
			if e <= cur || best.CompareAndSwap(cur, e) {
				return
			}
		}
	}
	// settle runs the tiers of candidate i that need its descendant cone:
	// the late bound, the predecessors of the cone whose source interval
	// meets x's (with early exit at the survival threshold), then an exact
	// strip-local min-cut solve from zero flow, abortable by level-cut
	// certificate once it provably cannot beat the incumbent.  The ancestor
	// cone is walked first unless the caller already has.  Every tier is
	// exact (see the package comment).
	settle := func(cs *CutSolver, x cdag.VertexID, i int, walkedAnc bool) {
		if sOff[x+1] == sOff[x] {
			// No descendants: the wavefront is {x} and the bound is exactly 1.
			record(1, i)
			return
		}
		cs.exploreDesc(x)
		need := needAgainst(best.Load(), i)
		if cs.lateBound(x, need, sources) < need || ctx.Err() != nil {
			return
		}
		if !walkedAnc {
			cs.exploreAnc(x)
		}
		w, pruned := cs.minWavefrontRun(x, needAgainst(best.Load(), i), sources)
		if !pruned {
			record(w, i)
		}
	}

	// Pass 1 — seeds, ancestor side first: a seed pruned by its early cut
	// never explores its descendant cone.
	if err := parallelFor(ctx, pool, workers, len(seedIdx), 1, func(cs *CutSolver, k int) {
		i := seedIdx[k]
		x := candidates[i]
		if packEntry(int(ub[i]), i) < best.Load() {
			return
		}
		if sOff[x+1] != sOff[x] {
			cs.nextEpoch()
			cs.exploreAnc(x)
			// Tier boundary: the descendant cone is not yet paid for.
			need := needAgainst(best.Load(), i)
			if cs.earlyBound(x, need, sinks) < need || ctx.Err() != nil {
				return
			}
		}
		settle(cs, x, i, true)
	}); err != nil {
		return 0, cdag.InvalidVertex, err
	}

	if len(seedIdx) < nc {
		for _, i := range seedIdx {
			ub[i] = -1
		}
		// Pass 2 — keys.  Nothing is solved, so the incumbent stands still,
		// and a key the schedule bounds already put below it needs no walk.
		// With sink intervals, a candidate whose descendant cone is the
		// smaller walks that cone first: a late bound below need is a
		// complete count, so a key.  A count stopped at need is not, and the
		// survivor walks its ancestor cone for the early key like every
		// other candidate.
		if err := parallelFor(ctx, pool, workers, nc, boundBlock, func(cs *CutSolver, i int) {
			x := candidates[i]
			if packEntry(int(ub[i]), i) < best.Load() {
				return
			}
			if sOff[x+1] == sOff[x] {
				ub[i] = 1 // exact
				return
			}
			cs.nextEpoch()
			need := needAgainst(best.Load(), i)
			if sinks.lo != nil && sinks.cone[x] < sources.cone[x] {
				cs.exploreDesc(x)
				if late := cs.lateBound(x, need, sources); late < need {
					ub[i] = int32(late)
					return
				}
			}
			cs.exploreAnc(x)
			ub[i] = min(ub[i], int32(cs.earlyBound(x, need, sinks)))
		}); err != nil {
			return 0, cdag.InvalidVertex, err
		}

		// Pass 3 — best key first.  Once one key falls below the incumbent,
		// every later one does too, and each returns at once.
		order := keyOrder(ub, best.Load())
		if err := parallelFor(ctx, pool, workers, len(order), 1, func(cs *CutSolver, k int) {
			i := int(order[k])
			if packEntry(int(ub[i]), i) < best.Load() {
				return
			}
			cs.nextEpoch()
			settle(cs, candidates[i], i, false)
		}); err != nil {
			return 0, cdag.InvalidVertex, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, cdag.InvalidVertex, err
	}

	bound, idx := unpackEntry(best.Load())
	if bound == 0 {
		// Unreachable: at least one candidate is always solved.
		return 0, cdag.InvalidVertex, nil
	}
	return bound, candidates[idx], nil
}

// keyOrder returns the indices i whose packed key packEntry(ub[i], i) reaches
// floor, in decreasing packed order: larger key first, then smaller index.
// Settled candidates (key −1) pack below every floor a solved candidate sets.
// Keys are wavefront sizes, at most the vertex count, so a counting sort
// orders them in O(len(ub) + largest key): bucket offsets laid out from the
// largest key down, then a scatter in ascending index order.
func keyOrder(ub []int32, floor int64) []int32 {
	n, maxKey := 0, int32(0)
	for i, u := range ub {
		if packEntry(int(u), i) >= floor {
			n++
			maxKey = max(maxKey, u)
		}
	}
	offs := make([]int32, maxKey+1)
	for i, u := range ub {
		if packEntry(int(u), i) >= floor {
			offs[u]++
		}
	}
	pos := int32(0)
	for u := maxKey; u >= 0; u-- {
		offs[u], pos = pos, pos+offs[u]
	}
	order := make([]int32, n)
	for i, u := range ub {
		if packEntry(int(u), i) >= floor {
			order[offs[u]] = int32(i)
			offs[u]++
		}
	}
	return order
}

// parallelFor runs body(i) for i in [0, n) over the given number of worker
// goroutines, each with its own CutSolver drawn from pool.  Workers claim
// block consecutive indices at a time, re-check ctx before each index and
// stop once it is cancelled; in-flight body calls run to completion (the
// caller surfaces ctx.Err()).  It starts no more workers than there are
// blocks, nor than pool's limit when it has one: every worker takes a solver
// before it claims work, so a worker past the blocks would take (or build)
// one only to find nothing left, and one past the limit would wait in Get.
//
// Every body call runs under fault.Capture: a panic inside a worker — from
// the engine itself or injected at the fault.PointWMaxWorker point — is
// converted into a *fault.PanicError, the remaining workers stop, and
// parallelFor returns the error instead of crashing the process.  A solver
// that was solving when its body panicked is discarded, never returned to
// the pool, since its scratch may be mid-mutation.
func parallelFor(ctx context.Context, pool *SolverPool, workers, n, block int, body func(*CutSolver, int)) error {
	runBody := func(cs *CutSolver, i int) error {
		return fault.Capture(fault.PointWMaxWorker, func() {
			fault.Inject(fault.PointWMaxWorker)
			body(cs, i)
		})
	}
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	if n == 0 {
		return nil
	}
	workers = min(max(workers, 1), (n+block-1)/block)
	if limit := pool.Limit(); limit > 0 {
		workers = min(workers, limit)
	}
	var next atomic.Int64
	work := func() {
		cs := pool.Get()
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= n {
				break
			}
			for i := lo; i < min(lo+block, n); i++ {
				if ctx.Err() != nil || failed.Load() {
					pool.Put(cs)
					return
				}
				if err := runBody(cs, i); err != nil {
					fail(err)
					pool.Discard(cs)
					return
				}
			}
		}
		pool.Put(cs)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// lateBound returns an upper bound on the min-cut wavefront of the explored
// candidate x that falls below limit exactly when countLate(x, limit,
// sources) does, so the caller prunes on lateBound(x, need, sources) < need;
// a value below limit is a complete count.  With sources it counts without
// them first, up to limit: a count that already falls below limit prunes as
// well as the filtered one would, without an interval test per vertex, and
// only a candidate whose count reaches limit is counted again with the
// intervals.  On stencils, where the intervals of a cone's surroundings all
// meet, the first count prunes nearly every candidate; on butterflies and
// trees it reaches limit after a vertex or two.
func (cs *CutSolver) lateBound(x cdag.VertexID, limit int, sources spans) int {
	late := cs.countLate(x, limit, spans{}, cs.epoch)
	if late < limit || sources.lo == nil {
		return late
	}
	return cs.countLate(x, limit, sources, -cs.epoch)
}

// countLate returns the size of a vertex cut around the explored candidate
// x: the distinct non-descendant predecessors of D = Desc(x) whose source
// interval meets x's.  Without sources that is every such predecessor, the
// boundary of the latest convex cut (T = D).  With sources it is still a
// cut: the last vertex before D on a path from A = {x} ∪ Anc(x) is reachable
// from A, so its interval meets x's (see spans), and the count is still an
// upper bound on the min cut, if no longer a convex cut's boundary.  x is
// always counted — every successor of x is a descendant, and its interval
// meets itself — so the value needs no explicit max with 1.  It reads only
// the descendant marks, once the descendant cone is explored (exploreDesc),
// and stamps the vertices it has seen in seenMark with stamp, which must
// differ from the stamps of any earlier count of the epoch.
//
// The count stops at limit: once the running count reaches the caller's
// survival threshold, the candidate survives this tier no matter how much
// larger the true count is, so the rest of the — often enormous —
// descendant cone is never walked.  Pass math.MaxInt for the full count.
// Early exit leaves seenMark partially stamped; no later consumer reads
// seenMark within an epoch, so this is safe.
func (cs *CutSolver) countLate(x cdag.VertexID, limit int, sources spans, stamp int32) int {
	e := cs.epoch
	pOff, pVal := cs.predOff, cs.predVal
	late := 0
	if limit <= 0 {
		return 0
	}
	for _, d := range cs.desc {
		for _, p := range pVal[pOff[d]:pOff[d+1]] {
			if cs.descMark[p] != e && cs.seenMark[p] != stamp {
				cs.seenMark[p] = stamp
				if sources.misses(x, p) {
					continue
				}
				late++
				if late >= limit {
					return late
				}
			}
		}
	}
	return late
}

// earlyBound returns an upper bound on the min-cut wavefront of the explored
// candidate x that reads only the ancestor marks (exploreAnc), which is what
// lets the search prune on it before paying for the descendant cone.
// Without sinks it is the full count of countEarly: the boundary of the
// earliest convex cut.  With sinks it counts without them first, up to
// limit, as lateBound does; a count that falls below limit is complete and
// returned, and otherwise the count with the intervals is returned in full.
// Either way the value is a complete count, so the bound pass can keep it as
// a key.
func (cs *CutSolver) earlyBound(x cdag.VertexID, limit int, sinks spans) int {
	if sinks.lo == nil {
		return cs.countEarly(x, math.MaxInt, spans{})
	}
	if early := cs.countEarly(x, limit, spans{}); early < limit {
		return early
	}
	return cs.countEarly(x, math.MaxInt, sinks)
}

// countEarly returns the size of a vertex cut around the explored candidate
// x: x itself, which belongs to the wavefront by definition, and the
// ancestors of x with a successor outside A = {x} ∪ Anc(x) whose sink
// interval meets x's.  Without sinks that is every ancestor with a successor
// outside A, and the count is the boundary of the earliest convex cut
// (S = A).  With sinks it is still a cut: every A→D path leaves A along an
// edge from an ancestor to a vertex that reaches D = Desc(x), so reaches a
// sink that x reaches, and its interval meets x's (see spans).  The count
// stops at limit, like countLate's.
func (cs *CutSolver) countEarly(x cdag.VertexID, limit int, sinks spans) int {
	e := cs.epoch
	sOff, sVal := cs.succOff, cs.succVal
	early := 1
	if limit <= 1 {
		return 1
	}
	for _, v := range cs.anc {
		for _, w := range sVal[sOff[v]:sOff[v+1]] {
			if w != x && cs.ancMark[w] != e && !sinks.misses(x, w) {
				early++
				if early >= limit {
					return early
				}
				break
			}
		}
	}
	return early
}

// scheduleWavefrontUB returns, for every candidate x, the wavefront size of
// a fixed topological schedule of g at the moment x fires — with demand set,
// the smaller of two such schedules.  The fired prefix S_x is
// predecessor-closed and contains {x} ∪ Anc(x), its complement contains
// Desc(x), so (S_x, V∖S_x) is a valid convex cut around x and its wavefront —
// the fired vertices with unfired successors, plus x itself — is achievable:
// its size upper-bounds |W^min(x)| and hence the min-cut lower bound.  One
// O(V+E) sweep per schedule covers every candidate, which is what lets the
// w^max search reject most candidates without ever exploring their cones.
//
// The first schedule is Kahn's FIFO order (Graph.TopoOrder), roughly
// breadth first.  The second is the demand order, depth first, one sink at a
// time (postOrder over predecessors from the sinks).  Neither dominates the
// other: on CG(3-D, n = 8, 2 iterations), 4,095 vertices keep a Kahn
// wavefront of at least w^max, 37 a demand-order one, and 25 the smaller of
// the two.  The second sweep reuses the first one's arrays, so it costs
// time, not memory.
//
// With demand set it also returns the source intervals, ranked in the
// demand order and filled into the two arrays the sweeps leave behind.  When
// those come out exact (fillSpans), it adds both sides' cone sizes
// (coneSizes) and returns the sink intervals (sinkSpans) too; otherwise the
// sink intervals are empty, and without demand the source intervals too.
func scheduleWavefrontUB(g *cdag.Graph, candidates []cdag.VertexID, demand bool) (ub []int32, sources, sinks spans) {
	n := g.NumVertices()
	order := g.MustTopoOrder()
	remaining := make([]int32, n)
	wfAt := make([]int32, n)
	firedWavefronts(g, order, remaining, wfAt)
	ub = make([]int32, len(candidates))
	for i, x := range candidates {
		ub[i] = wfAt[x]
	}
	if !demand {
		return ub, spans{}, spans{}
	}
	sOff, _, pOff, pVal := g.AdjacencyCSR()
	postOrder(sOff, pOff, pVal, order, remaining)
	firedWavefronts(g, order, remaining, wfAt)
	for i, x := range candidates {
		ub[i] = min(ub[i], wfAt[x])
	}
	sources, exact := fillSpans(order, pOff, pVal, remaining, wfAt)
	if !exact {
		return ub, sources, spans{}
	}
	sources.cone = coneSizes(order, pOff, pVal)
	return ub, sources, sinkSpans(g, order)
}

// spans gives every vertex v an interval [lo[v], hi[v]] of ranks, in one of
// two kinds, a vertex relating to itself in both:
//
//   - source intervals hold the ranks of the sources (vertices without
//     predecessors) that reach v.  If p is reachable from A = {x} ∪ Anc(x),
//     some source that reaches a vertex of A reaches both x and p, so its
//     rank lies in both intervals: disjoint intervals prove in O(1) that p
//     is not reachable from A.
//   - sink intervals hold the ranks of the sinks (vertices without
//     successors) that v reaches.  If w reaches a vertex of {x} ∪ Desc(x),
//     it reaches a sink that x reaches, and that sink's rank lies in both
//     intervals: disjoint intervals prove in O(1) that w reaches neither x
//     nor Desc(x).
//
// Both hold for every ranking.  The w^max scan ranks the sources in demand
// order and the sinks in its mirror (see postOrder), which makes the
// intervals exact on butterflies and reduction trees.  The zero value holds
// no intervals and proves nothing.
type spans struct {
	lo, hi []int32
	// cone, when set, holds every vertex's cone size on the same side, on a
	// multitree: |Anc(v)| with the source intervals, |Desc(v)| with the sink
	// intervals (see coneSizes).  It only steers the scan's cost.
	cone []int32
}

// misses reports whether p's interval and x's are disjoint.  Without
// intervals it reports false.  The receiver is a pointer so that the cone
// walks, which inline it once per vertex they count, copy no spans value.
func (sp *spans) misses(x, p cdag.VertexID) bool {
	return sp.lo != nil && (sp.hi[p] < sp.lo[x] || sp.lo[p] > sp.hi[x])
}

// fillSpans ranks the vertices whose row of (off, val) is empty in the order
// they appear in order, and fills lo and hi (one entry per vertex, whatever
// their contents) with every vertex's interval: such a vertex's own rank, or
// the hull of the intervals of its row.  With the predecessor rows and a
// topological order these are the source intervals; with the successor rows
// and a reverse topological order, the sink intervals.
//
// It also reports whether the intervals are exact in the sense the scan
// gates the sink intervals on: every interval of a vertex with a nonempty
// row is exactly as wide as the intervals of its row together.  With the
// predecessor rows of a multitree, where no two predecessors of a vertex
// share a source, that holds when the sources that reach each vertex have
// consecutive ranks: it holds on butterflies and reduction trees, and fails
// on stencils, Krylov iterations, binomial trees and the composite kernel.
// The check stops at the first vertex that fails it.
func fillSpans(order []cdag.VertexID, off []int64, val []cdag.VertexID, lo, hi []int32) (spans, bool) {
	rank := int32(0)
	exact := true
	for _, v := range order {
		row := val[off[v]:off[v+1]]
		if len(row) == 0 {
			lo[v], hi[v] = rank, rank
			rank++
			continue
		}
		l, h := lo[row[0]], hi[row[0]]
		for _, p := range row[1:] {
			l = min(l, lo[p])
			h = max(h, hi[p])
		}
		lo[v], hi[v] = l, h
		if exact {
			sum := int64(0)
			for _, p := range row {
				sum += int64(hi[p] - lo[p] + 1)
			}
			exact = sum == int64(h-l+1)
		}
	}
	return spans{lo: lo, hi: hi}, exact
}

// sinkSpans returns g's sink intervals with their descendant cone sizes,
// the sinks ranked in the mirror of the demand order: the post-order of a
// depth-first search over successors from each source, sources in ID order,
// successors in CSR order.  order is scratch of one entry per vertex,
// whatever its contents.
func sinkSpans(g *cdag.Graph, order []cdag.VertexID) spans {
	n := g.NumVertices()
	sOff, sVal, pOff, _ := g.AdjacencyCSR()
	lo, hi := make([]int32, n), make([]int32, n)
	postOrder(pOff, sOff, sVal, order, lo)
	sinks, _ := fillSpans(order, sOff, sVal, lo, hi)
	sinks.cone = coneSizes(order, sOff, sVal)
	return sinks
}

// coneSizes returns, for every vertex v in order, the sum over v's row of
// (off, val) of 1 + the row vertex's own sum, where order lists every vertex
// after its row, as fillSpans's does.  That counts the paths that end at v
// along the rows, one per vertex on a multitree, where no two paths join the
// same pair of vertices: there it is |Anc(v)| over the predecessor rows and
// |Desc(v)| over the successor rows.  Elsewhere it only overcounts, up to
// math.MaxInt32.
func coneSizes(order []cdag.VertexID, off []int64, val []cdag.VertexID) []int32 {
	size := make([]int32, len(off)-1)
	for _, v := range order {
		c := int64(0)
		for _, w := range val[off[v]:off[v+1]] {
			c += 1 + int64(size[w])
		}
		size[v] = int32(min(c, math.MaxInt32))
	}
	return size
}

// firedWavefronts plays the topological order and stores in wfAt[v] the
// wavefront size at the moment v fires: the fired vertices with an unfired
// successor, plus v itself.  remaining is scratch of one entry per vertex
// whose contents do not matter: each entry is set when its vertex fires,
// before anything reads it.
func firedWavefronts(g *cdag.Graph, order []cdag.VertexID, remaining, wfAt []int32) {
	sOff, _, pOff, pVal := g.AdjacencyCSR()
	live := 0
	for _, v := range order {
		remaining[v] = int32(sOff[v+1] - sOff[v]) // unfired successors of v
		if remaining[v] > 0 {
			live++
		}
		for _, p := range pVal[pOff[v]:pOff[v+1]] {
			remaining[p]--
			if remaining[p] == 0 {
				live--
			}
		}
		w := live
		if remaining[v] == 0 {
			w++ // v is in its wavefront even with no unfired successors
		}
		wfAt[v] = int32(w)
	}
}

// postOrder overwrites order (one entry per vertex) with the post-order of a
// depth-first search over the rows of (off, val) from each root, a vertex
// whose row of rootOff is empty: roots in ID order, rows in CSR order.  Over
// predecessors from the sinks (rootOff the successor offsets) this is the
// demand-driven topological order of g; over successors from the sources,
// its mirror, which lists every vertex after all of its successors.  cursor
// is scratch of one entry per vertex, whatever its contents.
//
// The stack holds exactly the current search path and grows down from the
// end of order while finished vertices fill it from the front; the two never
// meet, since every vertex is finished, on the path or unvisited.  cursor[v]
// is 0 while v is unvisited and 1 + the number of row entries examined once
// it is on the path.  A vertex is marked when pushed, but only one row entry
// is pushed at a time, so a marked entry has always finished: one still on
// the path would close a cycle.  Pushing all of a vertex's unvisited row
// entries at once would break this: one pushed lower on the stack is marked
// but not yet finished, so a vertex above it that needs it would skip it and
// finish first.
func postOrder(rootOff, off []int64, val []cdag.VertexID, order []cdag.VertexID, cursor []int32) {
	n := len(rootOff) - 1
	clear(cursor[:n])
	fired, top := 0, n // the path is order[top:], its last vertex order[top]
	for s := range n {
		if rootOff[s+1] != rootOff[s] {
			continue // not a root
		}
		top--
		order[top] = cdag.VertexID(s)
		cursor[s] = 1
		for top < n {
			v := order[top]
			row := val[off[v]:off[v+1]]
			c := cursor[v]
			for int(c) <= len(row) && cursor[row[c-1]] != 0 {
				c++
			}
			if int(c) <= len(row) {
				p := row[c-1]
				cursor[v] = c + 1
				cursor[p] = 1
				top--
				order[top] = p
				continue
			}
			top++
			order[fired] = v
			fired++
		}
	}
}

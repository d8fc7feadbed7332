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
	// Concurrency is the number of worker goroutines scanning candidates.
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

// sortByBoundDesc permutes order into decreasing ub, ties by increasing
// candidate index — the exact order sort.Slice produced historically, built
// by a two-pass counting sort instead: bucket offsets laid out from the
// largest bound down, then a stable ascending-index scatter.  Schedule
// wavefront sizes are bounded by the vertex count, so this is O(n) where the
// comparison sort's O(n log n) was the dominant setup cost of million-vertex
// scans.
func sortByBoundDesc(order []int, ub []int32) {
	maxUB := int32(0)
	for _, u := range ub {
		if u > maxUB {
			maxUB = u
		}
	}
	offs := make([]int32, maxUB+1)
	for _, u := range ub {
		offs[u]++
	}
	pos := int32(0)
	for u := maxUB; u >= 0; u-- {
		c := offs[u]
		offs[u] = pos
		pos += c
	}
	for i, u := range ub {
		order[offs[u]] = i
		offs[u]++
	}
}

const (
	// seedSample is the size of the degree-ranked sample the two-phase pass
	// solves before the main scan.
	seedSample = 32
	// anchorCount is the size of the degree-ranked prefix anchorSeeds moves
	// to the front of the processing order.
	anchorCount = 16
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

// MaxMinWavefrontLowerBoundCtx returns max_x of MinWavefrontLowerBound(g, x)
// over the candidate vertices (all vertices when candidates is nil) and the
// first candidate attaining it: a lower bound on w^max_G from Section 3.3,
// which feeds Lemma 2.  The scan is a parallel search over the candidates
// with per-worker CutSolver scratch (strip-local min-cut networks,
// epoch-stamped vertex marks, reusable traversal stacks), upper-bound
// pruning, warm-started solves, the mid-solve level-cut abort and a
// two-phase pass seeded with the candidates' degree-ranked top 32.
//
// The result is exactly that of MaxMinWavefrontLowerBoundSerial — the same
// bound value and the same witness vertex — independent of worker count and
// timing.  Pruning compares packed (upper bound, candidate index) entries
// against the packed best-so-far (see packEntry): a candidate is skipped only
// when it provably cannot raise the bound AND cannot displace the witness —
// either its upper bound is strictly below the established best, or it could
// at most tie it at a later candidate index than a bound-attaining candidate
// already solved.  Skipped candidates therefore never affect the packed
// maximum the search returns.
//
// The scan checks ctx at its pruning-tier boundaries — before a candidate is
// claimed, and again between the ancestor-cone and descendant-cone
// explorations of candidates that survive the early convex-cut bound — and
// returns ctx.Err() promptly once the context is cancelled.  Individual
// Dinic solves stay atomic: cancellation latency is bounded by the worker
// count times the cost of one candidate, never by the length of the
// candidate list.  A panic inside a worker surfaces as a *fault.PanicError.
func MaxMinWavefrontLowerBoundCtx(ctx context.Context, g *cdag.Graph, candidates []cdag.VertexID, opts WMaxOptions) (int, cdag.VertexID, error) {
	if err := ctx.Err(); err != nil {
		return 0, cdag.InvalidVertex, err
	}
	// Compile any staged edges into the CSR arrays before the workers start:
	// the lazy materialization is not synchronized.
	g.Materialize()
	// A pool bound to another graph would hand out solvers whose cached CSR
	// views index the wrong adjacency; ignore it rather than silently search
	// the wrong graph (fresh solvers are merely slower, never wrong).
	if opts.Pool != nil && opts.Pool.g != g {
		opts.Pool = nil
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
	if workers > len(candidates) {
		workers = len(candidates)
	}

	nc := len(candidates)

	// Processing order: compute the schedule-wavefront upper bound for every
	// candidate — one O(V+E) sweep for all of them, no per-candidate cone
	// exploration — and scan in decreasing upper-bound order.  The first few
	// max-flow solves then establish a large best-so-far that prunes the long
	// tail of candidates outright: most are rejected on the precomputed bound
	// alone, the rest get two more chances to be rejected on the tighter
	// convex-cut bounds (ancestor-side first, so a candidate pruned by its
	// early cut never explores its descendant cone), and only what survives
	// all three tiers pays for a Dinic solve.
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	ub := scheduleWavefrontUB(g, candidates)
	sortByBoundDesc(order, ub)
	seedIdx := topByDegree(g, candidates, seedSample)
	anchorSeeds(seedIdx[:min(anchorCount, len(seedIdx))], order)

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
	// scan runs the tiered treatment of candidate index i: precomputed bound,
	// then the ancestor-side convex bound, then the descendant-side bound
	// (with early exit at the survival threshold), then an exact strip-local
	// min-cut solve — warm-started from the worker's previous solve and
	// abortable by level-cut certificate once it provably cannot beat the
	// incumbent.  Every tier is exact (see the package comment), so the packed
	// maximum is independent of phase split, worker count and timing.
	scan := func(cs *CutSolver, i int) {
		x := candidates[i]
		if packEntry(int(ub[i]), i) < best.Load() {
			return
		}
		if cs.succOff[x+1] == cs.succOff[x] {
			// No descendants: the wavefront is {x} and the bound is exactly 1.
			record(1, i)
			return
		}
		cs.exploreAnc(x)
		if packEntry(cs.earlyBound(x), i) < best.Load() {
			return
		}
		// Tier boundary: the ancestor cone is explored, the descendant cone
		// is not yet paid for — the one spot inside a candidate where bailing
		// out early saves real work.
		if ctx.Err() != nil {
			return
		}
		cs.exploreDesc(x)
		need := needAgainst(best.Load(), i)
		if cs.lateBound(need) < need {
			return
		}
		w, pruned := cs.minWavefrontRun(x, needAgainst(best.Load(), i), true)
		if !pruned {
			record(w, i)
		}
	}

	// Phase 1 — incumbent seeding: solve the degree-ranked seed sample to
	// completion before the broad scan, so the best-so-far starts at (or
	// near) the final maximum and tier 1 kills the tail of the
	// upper-bound-sorted order without any cone exploration.  Seeds record
	// their exact bound at their true candidate index and are skipped by the
	// main scan, so the phase split cannot change the result.  When the
	// sample covers every candidate there is no tail to prune, and the main
	// scan alone runs.
	var isSeeded []bool
	if len(seedIdx) < nc {
		isSeeded = make([]bool, nc)
		for _, i := range seedIdx {
			isSeeded[i] = true
		}
		sw := min(workers, len(seedIdx))
		if err := parallelFor(ctx, opts.Pool, g, sw, len(seedIdx), func(cs *CutSolver, k int) {
			scan(cs, seedIdx[k])
		}); err != nil {
			return 0, cdag.InvalidVertex, err
		}
	}

	// Phase 2 — the full candidate scan in decreasing upper-bound order.
	if err := parallelFor(ctx, opts.Pool, g, workers, nc, func(cs *CutSolver, k int) {
		i := order[k]
		if isSeeded != nil && isSeeded[i] {
			return
		}
		scan(cs, i)
	}); err != nil {
		return 0, cdag.InvalidVertex, err
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

// parallelFor runs body(i) for i in [0, n) over the given number of worker
// goroutines, each with its own CutSolver bound to g — drawn from pool when
// one is supplied, freshly allocated otherwise.  Workers re-check ctx before
// claiming each index and stop claiming once it is cancelled; in-flight body
// calls run to completion (the caller surfaces ctx.Err()).
//
// Every body call runs under fault.Capture: a panic inside a worker — from
// the engine itself or injected at the fault.PointWMaxWorker point — is
// converted
// into a *fault.PanicError, the remaining workers stop claiming, and
// parallelFor returns the error instead of crashing the process.  A solver
// that was solving when its body panicked is discarded, never returned to
// the pool, since its scratch may be mid-mutation.
func parallelFor(ctx context.Context, pool *SolverPool, g *cdag.Graph, workers, n int, body func(*CutSolver, int)) error {
	acquire := func() *CutSolver {
		if pool != nil {
			return pool.Get()
		}
		cs := NewCutSolver()
		cs.ensureGraph(g)
		return cs
	}
	release := func(cs *CutSolver) {
		if pool != nil {
			pool.Put(cs)
		}
	}
	discard := func(cs *CutSolver) {
		if pool != nil {
			pool.Discard(cs)
		}
	}
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
	if workers <= 1 {
		cs := acquire()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := runBody(cs, i); err != nil {
				discard(cs)
				return err
			}
		}
		release(cs)
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cs := acquire()
			for {
				if ctx.Err() != nil || failed.Load() {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				if err := runBody(cs, i); err != nil {
					fail(err)
					discard(cs)
					return
				}
			}
			release(cs)
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// lateBound returns the boundary size of the latest convex cut around the
// explored candidate (T = Desc(x)): the distinct non-descendant predecessors
// of descendants.  x is always among them — every successor of x is a
// descendant — so the value needs no explicit max with 1.  It reads only the
// descendant marks; the search evaluates it after the early bound, once the
// descendant cone is explored (exploreDesc).
//
// The count stops at limit: the caller prunes on lateBound(need) < need, and
// once the running count reaches need the candidate survives this tier no
// matter how much larger the true boundary is, so the rest of the — often
// enormous — descendant cone is never walked.  Pass math.MaxInt for the full
// boundary size.  Early exit leaves seenMark partially stamped for the
// current epoch; no later consumer reads seenMark within an epoch, so this is
// safe.
func (cs *CutSolver) lateBound(limit int) int {
	e := cs.epoch
	pOff, pVal := cs.predOff, cs.predVal
	late := 0
	if limit <= 0 {
		return 0
	}
	for _, d := range cs.desc {
		for _, p := range pVal[pOff[d]:pOff[d+1]] {
			if cs.descMark[p] != e && cs.seenMark[p] != e {
				cs.seenMark[p] = e
				late++
				if late >= limit {
					return late
				}
			}
		}
	}
	return late
}

// earlyBound returns the boundary size of the earliest convex cut around the
// explored candidate (S = {x} ∪ Anc(x)): the vertices of S with a successor
// outside S, always counting x itself.  It reads only the ancestor marks
// (exploreAnc), which is what lets the search prune on it before paying for
// the descendant cone.
func (cs *CutSolver) earlyBound(x cdag.VertexID) int {
	e := cs.epoch
	sOff, sVal := cs.succOff, cs.succVal
	early := 0
	xInBoundary := false
	for _, w := range sVal[sOff[x]:sOff[x+1]] {
		if w != x && cs.ancMark[w] != e {
			early++
			xInBoundary = true
			break
		}
	}
	for _, v := range cs.anc {
		for _, w := range sVal[sOff[v]:sOff[v+1]] {
			if w != x && cs.ancMark[w] != e {
				early++
				break
			}
		}
	}
	if !xInBoundary {
		early++ // x belongs to the wavefront by definition
	}
	return early
}

// upperBound computes WavefrontUpperBound(g, x) from the current epoch's
// marks: the smaller boundary of the earliest and latest convex cuts around x,
// always counting x itself.
func (cs *CutSolver) upperBound(x cdag.VertexID) int {
	if len(cs.desc) == 0 {
		// With no descendants the latest cut has boundary {x}.
		return 1
	}
	best := cs.earlyBound(x)
	if late := cs.lateBound(math.MaxInt); late < best {
		best = late
	}
	if best < 1 {
		best = 1
	}
	return best
}

// anchorSeeds moves the anchors — the head of the degree-ranked seed sample
// (topByDegree) — to the front of the processing order, so the best-so-far
// jumps to (or near) the final maximum immediately.  On the paper's workloads
// the maximum wavefront sits at reduction roots whose schedule wavefront is
// unremarkable but whose degree is extreme — without the anchor, the broad
// crowd of mid-bound candidates is processed before the true maximum is known
// and cannot be pruned.  The order is purely a performance heuristic: the
// packed-maximum search returns an identical bound and witness under any
// processing order.  Nothing moves when the anchors cover the whole order.
func anchorSeeds(anchors, order []int) {
	if len(order) <= len(anchors) {
		return
	}
	isAnchor := make(map[int]bool, len(anchors))
	for _, i := range anchors {
		isAnchor[i] = true
	}
	reordered := append(make([]int, 0, len(order)), anchors...)
	for _, o := range order {
		if !isAnchor[o] {
			reordered = append(reordered, o)
		}
	}
	copy(order, reordered)
}

// scheduleWavefrontUB returns, for every candidate x, the wavefront size of a
// fixed topological schedule of g at the moment x fires.  The fired prefix
// S_x is predecessor-closed and contains {x} ∪ Anc(x), its complement
// contains Desc(x), so (S_x, V∖S_x) is a valid convex cut around x and its
// wavefront — the fired vertices with unfired successors, plus x itself — is
// achievable: its size upper-bounds |W^min(x)| and hence the min-cut lower
// bound.  One O(V+E) sweep covers every candidate, which is what lets the
// w^max search reject most candidates without ever exploring their cones.
func scheduleWavefrontUB(g *cdag.Graph, candidates []cdag.VertexID) []int32 {
	n := g.NumVertices()
	order := g.MustTopoOrder()
	sOff, _, pOff, pVal := g.AdjacencyCSR()
	remaining := make([]int32, n) // unfired successors of each fired vertex
	wfAt := make([]int32, n)
	live := 0
	for _, v := range order {
		remaining[v] = int32(sOff[v+1] - sOff[v])
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
	ub := make([]int32, len(candidates))
	for i, x := range candidates {
		ub[i] = wfAt[x]
	}
	return ub
}

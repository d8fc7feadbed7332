// Package graphalg provides the graph algorithms that underpin the
// data-movement lower-bound machinery: ancestor and descendant sets, and the
// strip-local vertex min-cuts behind the Lemma 2 wavefront bound (one vertex
// with CutSolver.MinWavefrontAt, the w^max candidate search with
// MaxMinWavefrontLowerBoundCtx) and the Hong–Kung minimum dominator
// (CutSolver.MinDominatorSize), all solved by Dinic's maximum flow over flat
// CSR arc arrays.  SolverPool recycles CutSolvers per graph.
//
// All algorithms operate on *cdag.Graph values and treat them as read-only.
// Flow networks never mutate the input CDAG.
//
// # The strip-local min-cut engine
//
// The hot computation of the package is the Lemma 2 wavefront bound: for a
// candidate vertex x, the minimum vertex cut separating A = {x} ∪ Anc(x)
// from D = Desc(x) with D uncuttable.  Solved naively this is a max-flow on
// the full vertex-split network — 2|V|+2 nodes for every candidate, even
// though the cut itself can only fall in the thin "strip" between the two
// cones.  CutSolver therefore builds the flow instance strip-locally:
//
//   - A is closed under predecessors, so no edge enters A from outside and
//     every A→D path leaves A exactly once, through a boundary vertex b of A
//     (a vertex with a successor outside A).  The suffix of the path from b
//     onward visits only b, free strip vertices, and D.
//   - The interior of A needs no nodes.  A cut vertex v ∈ A that is not a
//     boundary vertex covers only paths that later pass through a boundary
//     vertex b — but the suffix starting at b is itself an A→D path (b ∈ A)
//     avoiding v, so it must independently be covered by a vertex of
//     {b} ∪ strip.  The vertices of any cut C that lie in boundary ∪ strip
//     therefore already cover every A→D path, and some minimum cut lies
//     entirely inside boundary ∪ strip.  Contracting A's interior into the
//     super source (attaching it to each boundary vertex's vIn, keeping the
//     boundary's unit split arcs) preserves the min-cut value exactly.
//   - D is successor-closed and uncuttable: once a path enters D it stays
//     there, and no cut vertex can be chosen inside it.  Every edge into D is
//     therefore contracted into a single infinite arc to the super sink and
//     D's interior needs no nodes either.
//
// The resulting network has 2·(|boundary| + |strip|) + 2 nodes, and the strip
// is discovered by two sweeps.  A co-reachability sweep first marks the free
// vertices with a directed path into D; the others can carry no flow.  A
// forward walk from the boundary then visits only marked vertices and stops at
// D, assigning network ids as it goes.
//
// The co-reachability sweep starts from the side with fewer seed rows — the
// rows it must scan before it marks anything.  When Σ out-degree over A is
// below Σ in-degree over D it runs forward: it stamps the free vertices
// reachable from A, stopping at D, and then spreads co-reachability backward
// from those with a successor in D, through stamped vertices only.  Otherwise
// it runs backward from D's in-edges over all free vertices.  The side cannot
// change the network.  The walk reads the marks only on free successors of A
// and of strip vertices, all of them reachable from A; and a path from such a
// vertex into D stays among vertices reachable from A, each free until the
// path enters D.  So both sides mark the same vertices where the walk looks,
// and the network is the same arc for arc.  The forward side marks nothing on
// an fft input or on any vertex of a reduction tree; from D's side the sweep
// walked most of the graph for each of them, which made reduction-tree scans
// quadratic.  Per candidate, the cost scales with the strip and the cheaper
// side's surroundings, not with |V|.
//
// On top of the contraction, the flow core (flowCSR) keeps per-solve cost
// allocation-free: flat CSR arc storage that grows amortized and is reused
// across solves, an iterative current-arc DFS (recursion on long-path CDAGs
// such as million-vertex stencil chains would reach O(V) depth), and
// epoch-stamped BFS levels.
//
// Each Dinic BFS stops at the first dequeued node whose level is at least the
// sink's.  Every node of the sink's level is labeled by then, and a node past
// that level lies on no level-graph path to the sink, so the blocking flow
// pushes the same augmenting paths in the same order as after a full BFS: the
// residual network and the cut sets are unchanged.
//
// Results — cut values, cut sets, bounds and witnesses — are bit-identical to
// the historical per-call full vertex-split networks.  Those survive only in
// the package's tests, as the reference every engine is pinned to: one fresh
// 2|V|+2-node network per cut, and a serial scan solving every candidate.
//
// # The w^max scan: best first, in three passes
//
// MaxMinWavefrontLowerBoundCtx maximizes that bound over a candidate list and
// returns the first candidate attaining the maximum.  Most candidates cannot
// matter, and the scan is built to find that out as cheaply as possible.  It
// keeps the incumbent as one packed (bound, candidate index) word, and it
// skips a candidate whenever an upper bound on its value, packed with its
// index, falls below the incumbent.
//
//  1. The seed pass solves the (at most) 32 candidates of largest in+out
//     degree: on the paper's kernels the maximum sits at reduction roots and
//     other high-degree vertices, so the incumbent starts at or near the
//     final value.  A list of at most 32 candidates, such as the default
//     samples of cdagd and cdagx, is finished here.
//  2. The bound pass gives every other candidate a key: the smaller of its
//     two schedule wavefronts (below), and, unless those already put it
//     below the incumbent, the boundary of its earliest convex cut
//     S = {x} ∪ Anc(x), one ancestor-cone walk.  Nothing is solved, so the
//     incumbent stands still, and workers claim candidates in blocks.  The
//     keys overwrite the schedule bounds in place; the seeds' keys become −1.
//  3. The solve pass sorts the candidates whose key still reaches the
//     incumbent by decreasing key, then by index, and visits them in that
//     order.  It stops at the first key below the incumbent: every later key
//     is lower still.  A visited candidate walks its descendant cone and
//     prunes on its latest convex cut T = Desc(x) first.  Only when it
//     survives does it walk its ancestor cone again and pay for the solve.
//
// The schedule wavefronts come from playing two topological orders once each,
// O(V+E) for all candidates together.  The fired prefix when x fires is
// closed under predecessors, holds {x} ∪ Anc(x) and excludes Desc(x), so it
// is a valid convex cut around x, and its wavefront (the fired vertices with
// an unfired successor, plus x) bounds the minimum wavefront from above.  One
// order is Kahn's FIFO order, which fires level by level.  The other is
// demand-driven: a depth-first post-order over predecessors from each sink
// (sinks in ID order, predecessors in CSR order), which fires a vertex only
// once a vertex being computed needs it, right after the last of its
// predecessors.  Each is tight where the other is loose:
// of the 11,774 vertices of CG(3-D, n = 8, 2 iterations), whose maximum is
// 2,050, Kahn's order leaves 4,095 at or above it, the demand order 37 and
// the smaller of the two 25.  The second sweep reuses the first one's
// arrays: the topological order slice holds the search path and the fired
// prefix, and the unfired-successor counts become predecessor cursors.
//
// Neither the passes nor the key order can change the result.  Every key and
// every convex-cut or level-cut bound is an upper bound on the candidate's
// true value, the incumbent only ever grows in packed order, and a candidate
// is skipped only when its packed upper bound is below the incumbent at that
// moment, so below the final maximum too.  The final packed maximum is
// therefore that of a serial scan solving every candidate: the same bound and,
// since ties pack by index, the same first witness, for every order, worker
// count and timing.  The order only decides how soon the incumbent grows and
// so how much is skipped.  On Composite(12) two candidates have a key of at
// least the maximum, 135, and the one-worker scan runs 3 Dinic solves in all,
// where visiting the candidates by schedule wavefront ran 219.
//
// # Stopping a solve early: the level-cut abort
//
// Under the packed-maximum search, a candidate only matters if its bound
// reaches a threshold ("need") derived from the incumbent.  maxFlowBounded
// turns each Dinic BFS into an upper-bound certificate that can prove the
// threshold unreachable mid-solve: after a BFS from s that reaches t at level
// L, every residual arc leaving the set P_k = {v : level(v) ≤ k} (k < L) ends
// at level ≤ k+1, so the residual arcs crossing from level k to level k+1 are
// a complete s–t cut of the residual network.  The residual max-flow is
// therefore at most min over k < L of the crossing capacity (reverse arcs
// included uniformly — they are residual arcs like any other, and the sums
// saturate at flowInf so infinite-capacity crossings never overflow), and the
// final value is at most flow-so-far + that minimum.  When the bound falls
// below need the solve stops and reports an abort; the candidate provably
// cannot affect the scan's packed maximum, so skipping it is exact.  When no
// level cut proves that, the solve runs to completion and the value returned
// is the true maximum — the certificate only ever converts "cannot win" into
// an early exit.
//
// The sums cost no second pass: the BFS adds each arc's capacity to its
// level's crossing sum as it scans the arc — an arc from level k with residual
// capacity either labels its head at level k+1 or finds it already labeled at
// a level ≤ k+1 — and it saturates the sum after every addition, since a row
// with several infinite arcs would otherwise wrap negative.  Stopping at the
// sink's level loses nothing: every level below it is scanned in full first.
package graphalg

// Package graphalg provides the graph algorithms that underpin the
// data-movement lower-bound machinery: reachability (ancestor/descendant
// sets), maximum flow (Dinic over flat CSR arc arrays), vertex min-cuts via
// vertex splitting, minimum dominator sets, convex (S,T) cuts and
// vertex-disjoint path counts.
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
// allocation-free: flat CSR arc storage, an iterative current-arc DFS
// (recursion on long-path CDAGs such as million-vertex stencil chains would
// reach O(V) depth), epoch-stamped BFS levels, and dirty-arc capacity
// restoration for networks cached across solves.
//
// Each Dinic BFS stops at the first dequeued node whose level is at least the
// sink's.  Every node of the sink's level is labeled by then, and a node past
// that level lies on no level-graph path to the sink, so the blocking flow
// pushes the same augmenting paths in the same order as after a full BFS: the
// residual network, the warm-start paths and the cut sets are unchanged.
//
// MinVertexCut, MinDominatorSize, MaxVertexDisjointPaths and
// MinWavefrontLowerBoundStrip all route through pooled CutSolvers; results — cut values, cut
// sets, bounds and witnesses — are bit-identical to the historical per-call
// slice-of-slices networks, which survive as the reference implementations
// (MinWavefrontLowerBound, MaxMinWavefrontLowerBoundSerial) that the
// equivalence tests compare against.
//
// # Incremental flow across candidates: warm starts
//
// Consecutive candidates of the w^max scan induce overlapping strip networks,
// and the search exploits that without giving up exactness.  Every
// materialized vertex of a strip network carries a unit split arc, so a
// maximum (indeed any feasible integral) flow decomposes into unit paths that
// are fully vertex-disjoint in graph space, each running from a boundary
// vertex of A through free strip vertices to a vertex feeding D.  After each
// solve the engine harvests that decomposition as plain vertex sequences
// (harvestPaths); before the next candidate's solve it re-seeds each path
// into the freshly built network (seedPath):
//
//   - A is predecessor-closed for the new candidate too, so a path's vertices
//     that lie in the new A form a prefix.  The segment from the last prefix
//     vertex b — seedable only if b is a materialized boundary vertex — to
//     the vertex before the path first enters the new D (or to its end, when
//     that end feeds D directly) is an s→t unit path of the new network.
//   - Vertex-disjointness of the harvested paths carries over to the trimmed
//     segments, so seeding them can never oversubscribe an arc: the seeded
//     flow is feasible by construction.
//   - Exactness needs nothing more: Dinic started from any feasible flow
//     still terminates at the maximum flow value (augmenting paths exist
//     until the max is reached, regardless of the starting flow).  And the
//     canonical cut read back from the residual graph (lastStripCut) is the
//     minimal source side shared by all minimum cuts — the residual-reachable
//     set of ANY maximum flow — so even the cut set is independent of the
//     warm start, which the warm/cold equivalence tests assert literally.
//
// # Incremental flow within a candidate: the level-cut abort
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

// Package cdag provides the computational directed acyclic graph (CDAG)
// representation used throughout the library.
//
// A CDAG follows the model of Hong & Kung and of Elango et al.: it is a
// 4-tuple (I, V, E, O) where V is the vertex set, E ⊆ V×V the edge set,
// I ⊆ V the set of vertices tagged as inputs and O ⊆ V the set of vertices
// tagged as outputs.  Vertices represent scalar computational operations and
// edges represent flow of values between operations.  Two properties of the
// representation matter for the data-movement analyses built on top of it:
//
//  1. No execution order is encoded: only the partial order induced by the
//     edges constrains scheduling.
//  2. No memory locations are associated with operands or results.
//
// Unlike the original Hong–Kung model, and following the Red-Blue-White
// pebble-game refinement (Elango et al., Section 3), the input/output tagging
// is flexible: a vertex without predecessors need not be tagged as an input
// and a vertex without successors need not be tagged as an output.  The
// tagging directly affects the pebble games and the derived bounds, so the
// package keeps it explicit and mutable (see Graph.TagInput, Graph.UntagInput
// and friends, which implement the relabeling used by the tagging/untagging
// theorem).
//
// # Staged-then-frozen lifecycle
//
// A Graph passes through two representations:
//
//   - While being built (NewGraph, AddVertex/AddVertices/AddVertexBytes,
//     AddEdge, the generators in package gen and the tracer in package
//     trace), edges live in a single append-only staging buffer.  AddEdge is
//     a constant-time append: no per-edge duplicate scan, no per-vertex
//     allocation.  ReserveEdges pre-sizes the buffer when the edge count is
//     known.
//   - The first adjacency query — or an explicit Freeze or Materialize call —
//     compiles the staged edges into compressed-sparse-row (CSR) form: four
//     flat arrays (successor offsets + values, predecessor offsets + values,
//     one backing allocation each), built in O(V+E) by a stable counting-sort
//     scatter with per-row dedup.  Succ(v) and Pred(v) return subslices of
//     the flat arrays, so traversal is cache-linear and allocation-free.
//
// Invariants of the compiled form: vertex identifiers are dense small
// integers 0..n-1 in insertion order; adjacency lists are duplicate-free and
// hold their targets in first-insertion order (exactly the order the
// historical slice-of-slices representation produced, so traversal-derived
// schedules, bounds and I/O statistics are bit-identical across the
// representations — see the equivalence tests in csr_test.go).
//
// Mutating a compiled graph is permitted while it is not frozen: the staging
// buffer is reconstituted from the CSR arrays and the next query recompiles.
// This keeps interleaved build/query code working, but costs O(V+E) per
// recompilation — batch mutations, or Freeze the graph to make accidental
// structural mutation a panic.  Generators hand out frozen graphs.  Freezing
// locks vertices, edges and labels only: input/output tag flips stay legal on
// frozen graphs, because the Theorem 3 relabeling operates on finished CDAGs
// and tags never enter the compiled adjacency.
//
// # Choosing an adjacency accessor
//
// Succ and Pred are the default: one call returns the row of a single vertex
// as a subslice of the flat arrays, with a bounds check and a lazy
// materialization check per call.  That is the right interface for
// occasional queries, validation code, and anything that may run against a
// graph still being mutated.  Hot traversal loops — code that visits the row
// of every vertex, or replays the same rows many times per simulation (the
// pebble/P-RBW schedule players, memsim's cache simulator, the w^max cone
// explorations) — should instead hoist SuccessorCSR/PredecessorCSR (or
// AdjacencyCSR for both directions) once before the loop and index
// val[off[v]:off[v+1]] directly: same rows, same first-insertion order, but
// zero per-visit call, check or materialization overhead.  The returned
// arrays are invalidated by the next structural mutation, so the hoisted
// form is only for code that treats the graph as immutable while it runs.
//
// Concurrency: a Graph is not safe for concurrent mutation, and the lazy
// compilation is not synchronized either — call Freeze or Materialize (or
// perform any adjacency query) after the last mutation before sharing a
// graph across goroutines.  The parallel engines (graphalg's w^max search,
// memsim's sweep pool) materialize up front for exactly this reason.
package cdag

package cdag

import (
	"errors"
	"fmt"
	"math"
)

// VertexID identifies a vertex within a Graph.  IDs are dense: the vertices
// of a graph with n vertices are exactly 0..n-1, in insertion order.
type VertexID int32

// InvalidVertex is returned by lookups that fail to resolve a vertex.
const InvalidVertex VertexID = -1

// Graph is a computational DAG (CDAG).  The zero value is an empty graph
// ready for use; NewGraph is provided for symmetry and to pre-size storage.
//
// The graph has two internal states.  While being built it stages edges in a
// single append-only buffer, so AddEdge is a constant-time append with no
// duplicate scan.  The first adjacency query (or an explicit Materialize or
// Freeze call) compiles the staged edges into a compressed-sparse-row (CSR)
// form: four flat arrays (successor offsets and values, predecessor offsets
// and values), each one backing allocation, built in O(V+E) by a stable
// counting-sort scatter with per-row dedup.  Succ and Pred return subslices
// of the flat arrays, so traversal is cache-linear and allocation-free.
// Adjacency order is preserved exactly as with per-vertex append lists: each
// list holds the edge targets in first-insertion order with duplicates
// dropped, so schedules and bounds derived from traversal order are
// bit-identical to the historical slice-of-slices representation.
//
// Graph is not safe for concurrent mutation.  Concurrent read-only use is
// safe once the graph is materialized: call Freeze or Materialize (or any
// adjacency accessor) after the last mutation and before sharing the graph
// across goroutines.
type Graph struct {
	name string

	n int // |V|

	// Labels are stored flat and are fixed once their vertex is added:
	// labelBuf holds the concatenated label bytes and labelEnd[v] the end
	// offset of v's label (its start is labelEnd[v-1]).
	labelBuf []byte
	labelEnd []int32

	input  []bool // input tag per vertex
	output []bool // output tag per vertex

	nInputs  int
	nOutputs int

	// Staged edges, in AddEdge call order, possibly with duplicates.  The
	// buffer is released when the CSR form is materialized and reconstituted
	// from it if the graph is mutated again afterwards.
	eu, ev []VertexID

	// CSR adjacency, valid when dirty is false.  succOff and predOff have
	// n+1 entries; Succ(v) is succVal[succOff[v]:succOff[v+1]].
	succOff []int64
	succVal []VertexID
	predOff []int64
	predVal []VertexID
	nEdges  int

	dirty  bool // staged mutations not yet compiled into the CSR arrays
	frozen bool
}

// NewGraph returns an empty graph with the given name and storage pre-sized
// for hint vertices.  A hint of 0 is valid.
func NewGraph(name string, hint int) *Graph {
	g := &Graph{name: name}
	if hint > 0 {
		g.labelEnd = make([]int32, 0, hint)
		g.labelBuf = make([]byte, 0, 8*hint)
		g.input = make([]bool, 0, hint)
		g.output = make([]bool, 0, hint)
	}
	return g
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (duplicates staged by AddEdge count once).
func (g *Graph) NumEdges() int { g.ensure(); return g.nEdges }

// NumInputs returns |I|, the number of vertices tagged as inputs.
func (g *Graph) NumInputs() int { return g.nInputs }

// NumOutputs returns |O|, the number of vertices tagged as outputs.
func (g *Graph) NumOutputs() int { return g.nOutputs }

// NumOperations returns |V| − |I|, the number of compute (non-input) vertices.
func (g *Graph) NumOperations() int { return g.n - g.nInputs }

// Freeze compiles any staged edges into the CSR arrays and locks the
// graph's structure: subsequent vertex, edge or label mutations panic.
// Input/output tag flips (TagInput, UntagInput and friends) remain legal —
// the tagging/untagging relabeling of Theorem 3 operates on finished graphs
// and never affects the compiled adjacency.  Freezing is how the generators
// hand out finished graphs: a frozen graph is safe for concurrent read-only
// use and its adjacency can never be invalidated by accident.
func (g *Graph) Freeze() {
	g.ensure()
	g.frozen = true
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// Materialize compiles any staged edges into the CSR arrays without freezing
// the graph.  It is idempotent and cheap when nothing is staged.  Call it (or
// Freeze) before sharing a graph across goroutines, since the otherwise lazy
// compilation is not synchronized.
func (g *Graph) Materialize() { g.ensure() }

func (g *Graph) mutable() {
	if g.frozen {
		panic("cdag: mutation of frozen graph")
	}
}

// stage prepares the graph for a structural mutation: it marks the CSR arrays
// stale and, if the staging buffer was released by a previous
// materialization, rebuilds it from the CSR arrays.
func (g *Graph) stage() {
	g.reconstitute()
	g.dirty = true
}

// reconstitute rebuilds the staging buffer from the CSR arrays after it was
// released by a materialization.  The rebuilt sequence must project onto both
// the successor-row and predecessor-row orders (a plain source-major walk
// would preserve succ rows but reorder pred rows); any interleaving
// consistent with both is observationally equivalent to the original AddEdge
// sequence, and one always exists because the rows are projections of such a
// sequence.  The two-queue merge below finds one in O(V+E): an edge (u,w) is
// ready when it is at the front of both u's remaining succ row and w's
// remaining pred row, and emitting a ready edge can only unblock others.
func (g *Graph) reconstitute() {
	if g.dirty || g.eu != nil || g.nEdges == 0 {
		return
	}
	n := g.n
	g.eu = make([]VertexID, 0, g.nEdges)
	g.ev = make([]VertexID, 0, g.nEdges)
	sPtr := make([]int64, n)
	pPtr := make([]int64, n)
	copy(sPtr, g.succOff[:n])
	copy(pPtr, g.predOff[:n])
	work := make([]VertexID, 0, n)
	for u := n - 1; u >= 0; u-- {
		if g.succOff[u+1] > g.succOff[u] {
			work = append(work, VertexID(u))
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for sPtr[u] < g.succOff[u+1] {
			w := g.succVal[sPtr[u]]
			if g.predVal[pPtr[w]] != u {
				// u's next edge is blocked behind another predecessor of w;
				// u is re-queued when it reaches the front of w's pred row.
				break
			}
			g.eu = append(g.eu, u)
			g.ev = append(g.ev, w)
			sPtr[u]++
			pPtr[w]++
			if pPtr[w] < g.predOff[w+1] {
				next := g.predVal[pPtr[w]]
				if next != u && sPtr[next] < g.succOff[next+1] && g.succVal[sPtr[next]] == w {
					work = append(work, next)
				}
			}
		}
	}
}

// ensure materializes the CSR arrays if staged mutations are pending.
func (g *Graph) ensure() {
	if g.dirty {
		g.materialize()
	}
}

// materialize compiles the staged edge buffer into the four flat CSR arrays:
// a counting sort by source vertex (stable, so each successor list keeps its
// first-insertion order), an O(V+E) per-row dedup, and a second stable
// counting sort of the kept edges by target vertex for the predecessor lists
// (iterated in original AddEdge order, so predecessor lists too match the
// historical append-list order exactly).  The staging buffer is released
// afterwards; a later mutation reconstitutes it from the CSR arrays.
func (g *Graph) materialize() {
	n := g.n
	ne := len(g.eu)
	if ne > math.MaxInt32 {
		// idxByU below indexes staged edges with int32; refuse loudly rather
		// than corrupt the scatter.  2^31 staged edges is ~17 GB of buffer,
		// far beyond the representation's design point.
		panic("cdag: more than 2^31-1 staged edges")
	}

	if cap(g.succOff) >= n+1 {
		g.succOff = g.succOff[:n+1]
		for i := range g.succOff {
			g.succOff[i] = 0
		}
	} else {
		g.succOff = make([]int64, n+1)
	}
	for _, u := range g.eu {
		g.succOff[u+1]++
	}
	for v := 0; v < n; v++ {
		g.succOff[v+1] += g.succOff[v]
	}

	// Stable scatter of the staged edge indices into per-source buckets.
	idxByU := make([]int32, ne)
	cursor := make([]int64, n)
	copy(cursor, g.succOff[:n])
	for i, u := range g.eu {
		idxByU[cursor[u]] = int32(i)
		cursor[u]++
	}

	// Per-row dedup, compacting the successor values in place.  stamp[w] == u
	// marks "w already seen as a successor of u" (rows are processed in
	// increasing u, so no reset is needed).  kept[i] records whether staged
	// edge i survived, for the predecessor pass below.
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	var kept []bool
	if ne > 0 {
		kept = make([]bool, ne)
	}
	succVal := make([]VertexID, ne)
	written := int64(0)
	for u := 0; u < n; u++ {
		start := written
		for _, idx := range idxByU[g.succOff[u]:g.succOff[u+1]] {
			w := g.ev[idx]
			if stamp[w] == int32(u) {
				continue
			}
			stamp[w] = int32(u)
			kept[idx] = true
			succVal[written] = w
			written++
		}
		g.succOff[u] = start
	}
	if n > 0 {
		g.succOff[n] = written
	}
	g.succVal = succVal[:written]
	g.nEdges = int(written)

	// Predecessor CSR over the kept edges, scattered in AddEdge call order.
	if cap(g.predOff) >= n+1 {
		g.predOff = g.predOff[:n+1]
		for i := range g.predOff {
			g.predOff[i] = 0
		}
	} else {
		g.predOff = make([]int64, n+1)
	}
	for i, v := range g.ev {
		if kept[i] {
			g.predOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.predOff[v+1] += g.predOff[v]
	}
	predVal := make([]VertexID, written)
	copy(cursor, g.predOff[:n])
	for i, v := range g.ev {
		if kept[i] {
			predVal[cursor[v]] = g.eu[i]
			cursor[v]++
		}
	}
	g.predVal = predVal

	g.eu, g.ev = nil, nil
	g.dirty = false
}

// ReserveEdges pre-sizes the staging buffer for m additional edges, so bulk
// generators can stage all edges with a single allocation.
func (g *Graph) ReserveEdges(m int) {
	g.mutable()
	if m <= 0 {
		return
	}
	// Rebuild the released buffer first: growing a fresh empty buffer here
	// would make it look live and the compiled edges would be lost.
	g.reconstitute()
	if need := len(g.eu) + m; cap(g.eu) < need {
		eu := make([]VertexID, len(g.eu), need)
		copy(eu, g.eu)
		g.eu = eu
		ev := make([]VertexID, len(g.ev), need)
		copy(ev, g.ev)
		g.ev = ev
	}
}

// addVertex is the shared vertex-append path behind AddVertex and
// AddVertexBytes; the label bytes are copied into the flat label storage.
func addVertex[L string | []byte](g *Graph, label L) VertexID {
	g.mutable()
	g.stage()
	if len(g.labelBuf)+len(label) > math.MaxInt32 {
		// labelEnd stores int32 offsets; refuse loudly rather than wrap.
		panic("cdag: flat label storage exceeds 2 GiB")
	}
	id := VertexID(g.n)
	g.n++
	g.labelBuf = append(g.labelBuf, label...)
	g.labelEnd = append(g.labelEnd, int32(len(g.labelBuf)))
	g.input = append(g.input, false)
	g.output = append(g.output, false)
	return id
}

// AddVertex appends a new vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID { return addVertex(g, label) }

// AddVertexBytes is AddVertex for callers that format labels into a reusable
// byte buffer: the label bytes are copied into the graph's flat label storage
// without an intermediate string allocation.
func (g *Graph) AddVertexBytes(label []byte) VertexID { return addVertex(g, label) }

// AddInput appends a new vertex tagged as an input and returns its ID.
func (g *Graph) AddInput(label string) VertexID {
	v := g.AddVertex(label)
	g.TagInput(v)
	return v
}

// AddInputBytes is AddInput with the label passed as bytes (see AddVertexBytes).
func (g *Graph) AddInputBytes(label []byte) VertexID {
	v := g.AddVertexBytes(label)
	g.TagInput(v)
	return v
}

// AddOutput appends a new vertex tagged as an output and returns its ID.
func (g *Graph) AddOutput(label string) VertexID {
	v := g.AddVertex(label)
	g.TagOutput(v)
	return v
}

// AddVertices appends n unlabeled vertices and returns the ID of the first.
// The new vertices are first, first+1, ..., first+n-1.
func (g *Graph) AddVertices(n int) VertexID {
	g.mutable()
	g.stage()
	first := VertexID(g.n)
	end := int32(len(g.labelBuf))
	for i := 0; i < n; i++ {
		g.labelEnd = append(g.labelEnd, end)
	}
	g.input = append(g.input, make([]bool, n)...)
	g.output = append(g.output, make([]bool, n)...)
	g.n += n
	return first
}

// ValidVertex reports whether v names a vertex of g.
func (g *Graph) ValidVertex(v VertexID) bool {
	return v >= 0 && int(v) < g.n
}

func (g *Graph) checkVertex(v VertexID) {
	if !g.ValidVertex(v) {
		panic(fmt.Sprintf("cdag: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge stages the directed edge u→v: a constant-time append to the edge
// buffer.  Duplicate edges are dropped when the graph is materialized (the
// CDAG model carries no multiplicity).  Self-loops are rejected with a panic
// since they would make the graph cyclic.
func (g *Graph) AddEdge(u, v VertexID) {
	g.mutable()
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("cdag: self-loop on vertex %d", u))
	}
	g.stage()
	g.eu = append(g.eu, u)
	g.ev = append(g.ev, v)
}

// Succ returns the successors of v as a subslice of the graph's flat CSR
// array, in first-insertion order.  The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Succ(v VertexID) []VertexID {
	g.ensure()
	g.checkVertex(v)
	return g.succVal[g.succOff[v]:g.succOff[v+1]]
}

// Pred returns the predecessors of v as a subslice of the graph's flat CSR
// array, in first-insertion order.  The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Pred(v VertexID) []VertexID {
	g.ensure()
	g.checkVertex(v)
	return g.predVal[g.predOff[v]:g.predOff[v+1]]
}

// AdjacencyCSR materializes the graph and returns its compiled CSR adjacency
// arrays for read-only bulk traversal: Succ(v) is
// succVal[succOff[v]:succOff[v+1]] and Pred(v) is
// predVal[predOff[v]:predOff[v+1]].  The arrays are owned by the graph, must
// not be modified, and are invalidated by the next structural mutation.
// Hot analysis loops over millions of rows (the w^max cone explorations, the
// pebble-game players, the memsim traversals) use this to skip the per-call
// materialization and bounds checks of Succ/Pred.
func (g *Graph) AdjacencyCSR() (succOff []int64, succVal []VertexID, predOff []int64, predVal []VertexID) {
	g.ensure()
	return g.succOff, g.succVal, g.predOff, g.predVal
}

// SuccessorCSR materializes the graph and returns the successor half of the
// CSR adjacency: the successors of v are val[off[v]:off[v+1]], duplicate-free
// and in first-insertion order, exactly as Succ returns them.  The arrays are
// owned by the graph, must not be modified, and are invalidated by the next
// structural mutation.  Hoist this call out of a traversal loop and index the
// rows directly when the loop visits many vertices.
func (g *Graph) SuccessorCSR() (off []int64, val []VertexID) {
	g.ensure()
	return g.succOff, g.succVal
}

// PredecessorCSR is the symmetric counterpart of SuccessorCSR: the
// predecessors of v are val[off[v]:off[v+1]], duplicate-free and in
// first-insertion order, exactly as Pred returns them.  The arrays are owned
// by the graph, must not be modified, and are invalidated by the next
// structural mutation.  The schedule players and simulators hoist this call
// once per run and replay predecessor rows allocation- and call-free.
func (g *Graph) PredecessorCSR() (off []int64, val []VertexID) {
	g.ensure()
	return g.predOff, g.predVal
}

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v VertexID) int {
	g.ensure()
	g.checkVertex(v)
	return int(g.succOff[v+1] - g.succOff[v])
}

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v VertexID) int {
	g.ensure()
	g.checkVertex(v)
	return int(g.predOff[v+1] - g.predOff[v])
}

// Label returns the label of v (possibly empty).
func (g *Graph) Label(v VertexID) string {
	g.checkVertex(v)
	start := int32(0)
	if v > 0 {
		start = g.labelEnd[v-1]
	}
	return string(g.labelBuf[start:g.labelEnd[v]])
}

// IsInput reports whether v is tagged as an input vertex.
func (g *Graph) IsInput(v VertexID) bool { g.checkVertex(v); return g.input[v] }

// IsOutput reports whether v is tagged as an output vertex.
func (g *Graph) IsOutput(v VertexID) bool { g.checkVertex(v); return g.output[v] }

// TagInput tags v as an input vertex (idempotent).
func (g *Graph) TagInput(v VertexID) {
	g.checkVertex(v)
	if !g.input[v] {
		g.input[v] = true
		g.nInputs++
	}
}

// UntagInput removes the input tag from v (idempotent).  This implements the
// vertex relabeling used by the tagging/untagging theorem (Theorem 3).
func (g *Graph) UntagInput(v VertexID) {
	g.checkVertex(v)
	if g.input[v] {
		g.input[v] = false
		g.nInputs--
	}
}

// TagOutput tags v as an output vertex (idempotent).
func (g *Graph) TagOutput(v VertexID) {
	g.checkVertex(v)
	if !g.output[v] {
		g.output[v] = true
		g.nOutputs++
	}
}

// UntagOutput removes the output tag from v (idempotent).
func (g *Graph) UntagOutput(v VertexID) {
	g.checkVertex(v)
	if g.output[v] {
		g.output[v] = false
		g.nOutputs--
	}
}

// Inputs returns the IDs of all input-tagged vertices in increasing order.
func (g *Graph) Inputs() []VertexID {
	out := make([]VertexID, 0, g.nInputs)
	for v := range g.input {
		if g.input[v] {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Outputs returns the IDs of all output-tagged vertices in increasing order.
func (g *Graph) Outputs() []VertexID {
	out := make([]VertexID, 0, g.nOutputs)
	for v := range g.output {
		if g.output[v] {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Sources returns all vertices with no predecessors, in increasing order.
func (g *Graph) Sources() []VertexID {
	g.ensure()
	var out []VertexID
	for v := 0; v < g.n; v++ {
		if g.predOff[v+1] == g.predOff[v] {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Sinks returns all vertices with no successors, in increasing order.
func (g *Graph) Sinks() []VertexID {
	g.ensure()
	var out []VertexID
	for v := 0; v < g.n; v++ {
		if g.succOff[v+1] == g.succOff[v] {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Vertices returns all vertex IDs, 0..n-1.
func (g *Graph) Vertices() []VertexID {
	out := make([]VertexID, g.n)
	for i := range out {
		out[i] = VertexID(i)
	}
	return out
}

// TagHongKung applies the Hong–Kung convention: every source becomes an input
// and every sink becomes an output.  Useful when converting a generator graph
// to the classical red-blue game setting.
func (g *Graph) TagHongKung() {
	for _, v := range g.Sources() {
		g.TagInput(v)
	}
	for _, v := range g.Sinks() {
		g.TagOutput(v)
	}
}

// Clone returns a deep copy of the graph.  The clone is not frozen even if g
// is, so it can be relabeled or extended.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:     g.name,
		n:        g.n,
		labelBuf: append([]byte(nil), g.labelBuf...),
		labelEnd: append([]int32(nil), g.labelEnd...),
		input:    append([]bool(nil), g.input...),
		output:   append([]bool(nil), g.output...),
		nInputs:  g.nInputs,
		nOutputs: g.nOutputs,
		nEdges:   g.nEdges,
		dirty:    g.dirty,
	}
	if g.eu != nil {
		c.eu = append([]VertexID(nil), g.eu...)
		c.ev = append([]VertexID(nil), g.ev...)
	}
	if g.succOff != nil {
		c.succOff = append([]int64(nil), g.succOff...)
		c.succVal = append([]VertexID(nil), g.succVal...)
		c.predOff = append([]int64(nil), g.predOff...)
		c.predVal = append([]VertexID(nil), g.predVal...)
	}
	return c
}

// Validation errors returned by Validate.
var (
	ErrCyclic          = errors.New("cdag: graph contains a cycle")
	ErrInputHasPred    = errors.New("cdag: input vertex has predecessors")
	ErrOperationNoPred = errors.New("cdag: strict Hong-Kung mode: non-input vertex has no predecessors")
	ErrSinkNotOutput   = errors.New("cdag: strict Hong-Kung mode: sink vertex not tagged as output")
)

// ValidateMode selects how strictly Validate checks input/output tagging.
type ValidateMode int

const (
	// ValidateRBW checks only the requirements of the Red-Blue-White model:
	// acyclicity, and that input vertices have no predecessors.
	ValidateRBW ValidateMode = iota
	// ValidateHongKung additionally requires every source to be an input and
	// every sink to be an output (Definition 1/2 of the paper).
	ValidateHongKung
)

// Validate checks structural invariants of the CDAG under the given mode and
// returns the first violation found, or nil.
func (g *Graph) Validate(mode ValidateMode) error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		id := VertexID(v)
		if g.input[v] && g.InDegree(id) > 0 {
			return fmt.Errorf("%w: vertex %d (%q)", ErrInputHasPred, id, g.Label(id))
		}
		if mode == ValidateHongKung {
			if !g.input[v] && g.InDegree(id) == 0 {
				return fmt.Errorf("%w: vertex %d (%q)", ErrOperationNoPred, id, g.Label(id))
			}
			if !g.output[v] && g.OutDegree(id) == 0 {
				return fmt.Errorf("%w: vertex %d (%q)", ErrSinkNotOutput, id, g.Label(id))
			}
		}
	}
	return nil
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("CDAG %q: |V|=%d |E|=%d |I|=%d |O|=%d",
		g.name, g.NumVertices(), g.NumEdges(), g.nInputs, g.nOutputs)
}

package cdag

// SubgraphMapping relates the vertices of an induced sub-CDAG to the vertices
// of its parent graph.
type SubgraphMapping struct {
	// ToParent[v] is the parent vertex that sub-vertex v was induced from.
	ToParent []VertexID
	// FromParent[p] is the sub-vertex induced from parent vertex p, or
	// InvalidVertex if p is not part of the subgraph.
	FromParent []VertexID
}

// InducedSubgraph returns the sub-CDAG of g induced by the vertex set s,
// together with the vertex mapping.  Following the decomposition theorem
// (Theorem 2), the induced sub-CDAG keeps exactly the edges internal to s and
// the input/output tags restricted to s: I_i = I ∩ V_i, O_i = O ∩ V_i.  No
// additional tags are introduced; callers that want boundary vertices to act
// as inputs/outputs of the piece should apply TagInput/TagOutput afterwards
// (and account for the tagging theorem when composing bounds).
func InducedSubgraph(g *Graph, s *VertexSet, name string) (*Graph, *SubgraphMapping) {
	n := g.NumVertices()
	m := &SubgraphMapping{
		ToParent:   make([]VertexID, 0, s.Len()),
		FromParent: make([]VertexID, n),
	}
	for i := range m.FromParent {
		m.FromParent[i] = InvalidVertex
	}
	sub := NewGraph(name, s.Len())
	for _, p := range s.Elements() {
		v := sub.AddVertex(g.Label(p))
		if g.IsInput(p) {
			sub.TagInput(v)
		}
		if g.IsOutput(p) {
			sub.TagOutput(v)
		}
		m.ToParent = append(m.ToParent, p)
		m.FromParent[p] = v
	}
	for _, p := range s.Elements() {
		u := m.FromParent[p]
		for _, q := range g.Succ(p) {
			if w := m.FromParent[q]; w != InvalidVertex {
				sub.AddEdge(u, w)
			}
		}
	}
	return sub, m
}

// Partition splits the vertices of g into the given disjoint vertex sets and
// returns the induced sub-CDAGs in order.  It panics if the sets are not
// disjoint or do not cover V; use PartitionStrict to get an error instead.
func Partition(g *Graph, parts []*VertexSet, names []string) []*Graph {
	subs, err := PartitionStrict(g, parts, names)
	if err != nil {
		panic(err)
	}
	return subs
}

// PartitionStrict is Partition with error reporting.
func PartitionStrict(g *Graph, parts []*VertexSet, names []string) ([]*Graph, error) {
	seen := NewVertexSet(g.NumVertices())
	total := 0
	for i, p := range parts {
		for _, v := range p.Elements() {
			if !seen.Add(v) {
				return nil, &PartitionError{Part: i, Vertex: v, Reason: "vertex appears in multiple parts"}
			}
			total++
		}
	}
	if total != g.NumVertices() {
		return nil, &PartitionError{Part: -1, Vertex: InvalidVertex,
			Reason: "parts do not cover all vertices"}
	}
	subs := make([]*Graph, len(parts))
	for i, p := range parts {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		subs[i], _ = InducedSubgraph(g, p, name)
	}
	return subs, nil
}

// PartitionError reports a violation of the disjoint-cover requirement.
type PartitionError struct {
	Part   int
	Vertex VertexID
	Reason string
}

func (e *PartitionError) Error() string {
	return "cdag: invalid partition: " + e.Reason
}

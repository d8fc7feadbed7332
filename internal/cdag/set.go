package cdag

// VertexSet is a set of vertices of a particular graph, stored densely as a
// bitmap plus an element count.  It is the working currency of the
// partitioning, decomposition and wavefront machinery, where sets are built
// incrementally and queried heavily.
type VertexSet struct {
	member []bool
	count  int
}

// NewVertexSet returns an empty set able to hold vertices of a graph with n
// vertices.
func NewVertexSet(n int) *VertexSet {
	return &VertexSet{member: make([]bool, n)}
}

// NewVertexSetOf returns a set over a universe of n vertices containing vs.
func NewVertexSetOf(n int, vs ...VertexID) *VertexSet {
	s := NewVertexSet(n)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Universe returns the size of the vertex universe the set was created for.
func (s *VertexSet) Universe() int { return len(s.member) }

// Len returns the number of elements in the set.
func (s *VertexSet) Len() int { return s.count }

// Contains reports whether v is in the set.
func (s *VertexSet) Contains(v VertexID) bool {
	return v >= 0 && int(v) < len(s.member) && s.member[v]
}

// Add inserts v.  It reports whether v was newly inserted.
func (s *VertexSet) Add(v VertexID) bool {
	if s.member[v] {
		return false
	}
	s.member[v] = true
	s.count++
	return true
}

// Remove deletes v.  It reports whether v was present.
func (s *VertexSet) Remove(v VertexID) bool {
	if !s.member[v] {
		return false
	}
	s.member[v] = false
	s.count--
	return true
}

// AddAll inserts every vertex in vs.
func (s *VertexSet) AddAll(vs []VertexID) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Elements returns the elements in increasing order.
func (s *VertexSet) Elements() []VertexID {
	out := make([]VertexID, 0, s.count)
	for v, in := range s.member {
		if in {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Clone returns a copy of the set.
func (s *VertexSet) Clone() *VertexSet {
	return &VertexSet{member: append([]bool(nil), s.member...), count: s.count}
}

// Clear removes all elements.
func (s *VertexSet) Clear() {
	for i := range s.member {
		s.member[i] = false
	}
	s.count = 0
}

// Union adds all elements of t to s.
func (s *VertexSet) Union(t *VertexSet) {
	for v, in := range t.member {
		if in {
			s.Add(VertexID(v))
		}
	}
}

// Intersects reports whether s and t share at least one element.
func (s *VertexSet) Intersects(t *VertexSet) bool {
	n := len(s.member)
	if len(t.member) < n {
		n = len(t.member)
	}
	for v := 0; v < n; v++ {
		if s.member[v] && t.member[v] {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same elements.
func (s *VertexSet) Equal(t *VertexSet) bool {
	if s.count != t.count {
		return false
	}
	for v, in := range s.member {
		if in && !t.Contains(VertexID(v)) {
			return false
		}
	}
	return true
}

// Complement returns the set of vertices in the universe not contained in s.
func (s *VertexSet) Complement() *VertexSet {
	c := NewVertexSet(len(s.member))
	for v, in := range s.member {
		if !in {
			c.Add(VertexID(v))
		}
	}
	return c
}

// In returns In(S) for the vertex set S of graph g: the set of vertices of
// V \ S that have at least one successor in S (Definition 5, P3).
func In(g *Graph, s *VertexSet) *VertexSet {
	in := NewVertexSet(g.NumVertices())
	for _, v := range s.Elements() {
		for _, p := range g.Pred(v) {
			if !s.Contains(p) {
				in.Add(p)
			}
		}
	}
	return in
}

// Out returns Out(S) for the vertex set S of graph g: the set of vertices of
// S that are tagged as outputs of g or have at least one successor outside S
// (Definition 5, P4).
func Out(g *Graph, s *VertexSet) *VertexSet {
	out := NewVertexSet(g.NumVertices())
	for _, v := range s.Elements() {
		if g.IsOutput(v) {
			out.Add(v)
			continue
		}
		for _, w := range g.Succ(v) {
			if !s.Contains(w) {
				out.Add(v)
				break
			}
		}
	}
	return out
}

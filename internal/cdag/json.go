package cdag

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// jsonGraph is the on-disk representation of a Graph.
type jsonGraph struct {
	Name     string     `json:"name"`
	Vertices int        `json:"vertices"`
	Labels   []string   `json:"labels,omitempty"`
	Edges    [][2]int32 `json:"edges"`
	Inputs   []int32    `json:"inputs"`
	Outputs  []int32    `json:"outputs"`
}

// ErrLimit is wrapped by every JSON-decoding error caused by an input
// exceeding a configured JSONLimits bound, so boundary code can map the whole
// family to a "resource limit" response with one errors.Is test.
var ErrLimit = errors.New("cdag: input exceeds limit")

// JSONLimits bounds what ReadJSONLimits accepts before any storage
// proportional to the declared sizes is allocated.  A zero field means
// "unlimited"; the zero value accepts everything UnmarshalJSON accepts.
// Limit violations wrap ErrLimit; structural violations (edges out of range,
// self-loops, more labels than vertices) are ordinary descriptive errors.
type JSONLimits struct {
	// MaxVertices caps the declared vertex count.
	MaxVertices int
	// MaxEdges caps the number of edge pairs.
	MaxEdges int
	// MaxLabelBytes caps the total bytes across all vertex labels.
	MaxLabelBytes int64
}

// MarshalJSON encodes the graph in a compact adjacency-list form.
func (g *Graph) MarshalJSON() ([]byte, error) {
	g.ensure()
	jg := jsonGraph{
		Name:     g.name,
		Vertices: g.NumVertices(),
		Edges:    make([][2]int32, 0, g.nEdges),
		Inputs:   make([]int32, 0, g.nInputs),
		Outputs:  make([]int32, 0, g.nOutputs),
	}
	if len(g.labelBuf) > 0 {
		jg.Labels = make([]string, g.n)
		for v := 0; v < g.n; v++ {
			jg.Labels[v] = g.Label(VertexID(v))
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Succ(VertexID(v)) {
			jg.Edges = append(jg.Edges, [2]int32{int32(v), int32(w)})
		}
		if g.input[v] {
			jg.Inputs = append(jg.Inputs, int32(v))
		}
		if g.output[v] {
			jg.Outputs = append(jg.Outputs, int32(v))
		}
	}
	return json.Marshal(jg)
}

// decodeGraph validates jg against the limits and builds the graph.  Every
// rejection is a descriptive error, never a panic: the decoder is the
// boundary adversarial input crosses, so out-of-range endpoints, self-loops
// and oversized declarations must all fail closed.  Limits are enforced
// before any allocation proportional to the declared sizes.
func decodeGraph(jg *jsonGraph, lim JSONLimits) (*Graph, error) {
	if jg.Vertices < 0 {
		return nil, fmt.Errorf("cdag: negative vertex count %d", jg.Vertices)
	}
	if lim.MaxVertices > 0 && jg.Vertices > lim.MaxVertices {
		return nil, fmt.Errorf("%w: %d vertices > max %d", ErrLimit, jg.Vertices, lim.MaxVertices)
	}
	if lim.MaxEdges > 0 && len(jg.Edges) > lim.MaxEdges {
		return nil, fmt.Errorf("%w: %d edges > max %d", ErrLimit, len(jg.Edges), lim.MaxEdges)
	}
	if len(jg.Labels) > jg.Vertices {
		return nil, fmt.Errorf("cdag: %d labels for %d vertices", len(jg.Labels), jg.Vertices)
	}
	var labelBytes int64
	for _, l := range jg.Labels {
		labelBytes += int64(len(l))
	}
	if lim.MaxLabelBytes > 0 && labelBytes > lim.MaxLabelBytes {
		return nil, fmt.Errorf("%w: %d label bytes > max %d", ErrLimit, labelBytes, lim.MaxLabelBytes)
	}
	ng := NewGraph(jg.Name, jg.Vertices)
	for i := 0; i < jg.Vertices; i++ {
		label := ""
		if i < len(jg.Labels) {
			label = jg.Labels[i]
		}
		ng.AddVertex(label)
	}
	ng.ReserveEdges(len(jg.Edges))
	for _, e := range jg.Edges {
		u, v := VertexID(e[0]), VertexID(e[1])
		if !ng.ValidVertex(u) || !ng.ValidVertex(v) {
			return nil, fmt.Errorf("cdag: edge (%d,%d) out of range [0,%d)", u, v, jg.Vertices)
		}
		if u == v {
			// AddEdge panics on self-loops (a programmer error for generator
			// code); on the decode path it must be an input error instead.
			return nil, fmt.Errorf("cdag: self-loop edge (%d,%d)", u, v)
		}
		ng.AddEdge(u, v)
	}
	for _, v := range jg.Inputs {
		if !ng.ValidVertex(VertexID(v)) {
			return nil, fmt.Errorf("cdag: input vertex %d out of range [0,%d)", v, jg.Vertices)
		}
		ng.TagInput(VertexID(v))
	}
	for _, v := range jg.Outputs {
		if !ng.ValidVertex(VertexID(v)) {
			return nil, fmt.Errorf("cdag: output vertex %d out of range [0,%d)", v, jg.Vertices)
		}
		ng.TagOutput(VertexID(v))
	}
	return ng, nil
}

// UnmarshalJSON decodes a graph previously produced by MarshalJSON.  Every
// malformed input — truncated payload, out-of-range endpoints, self-loops,
// label/vertex count mismatch — yields a descriptive error; no input can
// reach a panic.  Size limits are not applied here (a Graph value is a
// trusted in-process type); boundary code reading untrusted bytes should use
// ReadJSONLimits.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	ng, err := decodeGraph(&jg, JSONLimits{})
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// WriteJSON writes the graph as JSON to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g)
}

// ReadJSONLimits reads a graph in the format written by WriteJSON, enforcing
// lim before any storage proportional to the declared sizes is allocated: a
// payload declaring a billion vertices is rejected by count, not by running
// out of memory.  Limit violations wrap ErrLimit; all other malformed inputs
// yield descriptive errors.
func ReadJSONLimits(r io.Reader, lim JSONLimits) (*Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jg); err != nil {
		return nil, err
	}
	return decodeGraph(&jg, lim)
}

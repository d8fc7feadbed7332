// Package spec defines the declarative experiment specification of cdagx —
// what to measure, over which workloads, on which machine catalog entries —
// and compiles it into a validated intermediate representation of
// content-addressed experiment cells.  The spec names intent; the
// deterministic engines behind the Workspace seam define execution; the
// runner (internal/exp/run) only ever computes the delta.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"cdagio/internal/gen"
)

// Spec is the top-level experiment specification, written in the YAML
// subset of yaml.go.
type Spec struct {
	// Name identifies the spec in outputs.
	Name string `json:"name"`
	// Machines names catalog machines (internal/machine) the machine-
	// dependent experiments evaluate against, in report order.  Aliases
	// ("bgq", "xt5") are accepted.
	Machines []string `json:"machines,omitempty"`
	// Workloads declares the named generator graphs the experiments run on.
	Workloads []Workload `json:"workloads,omitempty"`
	// Experiments is the measurement matrix.
	Experiments []Experiment `json:"experiments"`
}

// Workload is a named generator spec.  The generator fields are the
// catalog's Spec verbatim, so a workload admits, builds and content-hashes
// exactly like a daemon upload of the same spec.
type Workload struct {
	Name string `json:"name"`
	gen.Spec
}

// Experiment is one named measurement over an optional workload.  Slice
// fields (S, Policies, Schedules, Nodes) are matrix axes — the compiler
// expands their cross product into cells; scalar fields parameterize every
// cell of the experiment.
type Experiment struct {
	Name     string `json:"name"`
	Title    string `json:"title,omitempty"`
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	// Heavy marks the experiment skippable under `cdagx run -short`.
	Heavy bool `json:"heavy,omitempty"`

	// Matrix axes.
	S         []int    `json:"s,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	Schedules []string `json:"schedules,omitempty"`
	Nodes     []int    `json:"nodes,omitempty"`

	// Engine parameters.
	Candidates int    `json:"candidates,omitempty"`
	Variant    string `json:"variant,omitempty"`
	MaxStates  int    `json:"max_states,omitempty"`
	Owner      string `json:"owner,omitempty"`
	Bound      string `json:"bound,omitempty"`

	// P-RBW topology parameters.
	Assignment   string `json:"assignment,omitempty"`
	Grain        int    `json:"grain,omitempty"`
	P            int    `json:"p,omitempty"`
	S1           int    `json:"s1,omitempty"`
	SL           int    `json:"sl,omitempty"`
	ProcsPerNode int    `json:"procs_per_node,omitempty"`
	RegWords     int    `json:"reg_words,omitempty"`
	CacheWords   int    `json:"cache_words,omitempty"`
	MemWords     int    `json:"mem_words,omitempty"`

	// Balance / solver / graphstat parameters.
	Family       string  `json:"family,omitempty"`
	Machine      string  `json:"machine,omitempty"`
	Dim          int     `json:"dim,omitempty"`
	N            int     `json:"n,omitempty"`
	Steps        int     `json:"steps,omitempty"`
	Iterations   int     `json:"iterations,omitempty"`
	MSweep       []int   `json:"m_sweep,omitempty"`
	MaxDim       int     `json:"max_dim,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
	Restart      int     `json:"restart,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	CriticalPath bool    `json:"critical_path,omitempty"`
}

// Parse decodes a spec from the YAML subset.  Unknown fields are boundary
// errors.
func Parse(data []byte) (*Spec, error) {
	tree, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("spec: canonicalize yaml: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/machine"
	"cdagio/internal/serve"
)

// Options configures compilation.  The zero value admits workloads under the
// same ceilings a default cdagd applies at upload time, so a spec that
// compiles here will not be rejected by a daemon in -remote mode.
type Options struct {
	// Limits bounds workload graph sizes; zero means serve's defaults.
	Limits cdag.JSONLimits
	// SolverLimit is the solver count assumed by the footprint estimate;
	// zero means 1.
	SolverLimit int
	// Budget bounds the estimated per-workload Workspace footprint in
	// bytes; zero means serve.DefaultCacheBudget.
	Budget int64
}

// Params is the canonical parameter record of one cell.  Its JSON form —
// fixed field order, zero values omitted — is part of the cell's content
// address, so two spec files describing the same measurement share a cache
// entry regardless of formatting.
type Params struct {
	S            int     `json:"s,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	Schedule     string  `json:"schedule,omitempty"`
	Nodes        int     `json:"nodes,omitempty"`
	Owner        string  `json:"owner,omitempty"`
	Candidates   int     `json:"candidates,omitempty"`
	Variant      string  `json:"variant,omitempty"`
	MaxStates    int     `json:"max_states,omitempty"`
	Bound        string  `json:"bound,omitempty"`
	Assignment   string  `json:"assignment,omitempty"`
	Grain        int     `json:"grain,omitempty"`
	P            int     `json:"p,omitempty"`
	S1           int     `json:"s1,omitempty"`
	SL           int     `json:"sl,omitempty"`
	ProcsPerNode int     `json:"procs_per_node,omitempty"`
	RegWords     int     `json:"reg_words,omitempty"`
	CacheWords   int     `json:"cache_words,omitempty"`
	MemWords     int     `json:"mem_words,omitempty"`
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

// Cell is one compiled analysis job: a kind, its canonical parameters, and
// a content-address key.  Cells whose Engine is non-empty carry a canonical
// daemon request body and can be dispatched to a remote cdagd verbatim;
// local execution feeds the identical body through serve.RunEngine, so the
// result bytes agree either way.
type Cell struct {
	// Exp and ExpIndex locate the owning experiment; Index is the cell's
	// position within it.
	Exp      string
	ExpIndex int
	Index    int
	// Kind is the operation ("table1", "balance", "solver", "graphstat",
	// "analyze", "wmax", "optimal", "play", "prbw", "sweep").
	Kind string
	// Workload names the generator graph, empty for graph-free kinds.
	Workload string
	// GraphID is the serve-compatible content hash of the workload graph,
	// empty for graph-free kinds.
	GraphID string
	// Engine is the daemon engine name when the cell is expressible as one
	// daemon request; empty means local-only execution.
	Engine string
	// Body is the canonical engine request body when Engine is non-empty.
	Body []byte
	// Params is the canonical parameter record.
	Params Params
	// Key is the cell's content address: a hash over the graph ID, kind,
	// canonical parameters and (for machine-dependent kinds) the resolved
	// machine fingerprints.
	Key string
	// Heavy marks the cell skippable under -short runs.
	Heavy bool
}

// Label renders a short display name for the cell.
func (c *Cell) Label() string {
	return fmt.Sprintf("%s/%d", c.Exp, c.Index)
}

// IR is a validated, normalized spec: resolved machines, admitted
// workloads, and the expanded cell list in deterministic order.
type IR struct {
	Name        string
	Machines    []machine.Machine
	Workloads   []Workload
	Experiments []Experiment
	Cells       []Cell

	workloadIdx map[string]int
}

// WorkloadByName returns the named workload.
func (ir *IR) WorkloadByName(name string) (*Workload, bool) {
	i, ok := ir.workloadIdx[name]
	if !ok {
		return nil, false
	}
	return &ir.Workloads[i], true
}

// CellsOf returns the cells of experiment index e, in order.
func (ir *IR) CellsOf(e int) []*Cell {
	var out []*Cell
	for i := range ir.Cells {
		if ir.Cells[i].ExpIndex == e {
			out = append(out, &ir.Cells[i])
		}
	}
	return out
}

// Compile validates the spec and lowers it into an IR.  All validation is
// boundary-time: unknown kinds, unknown machines, out-of-domain or oversized
// workloads (via serve's admission estimates) and malformed experiment
// matrices fail here, before any graph is built.
func Compile(s *Spec, opts Options) (*IR, error) {
	if opts.Limits == (cdag.JSONLimits{}) {
		opts.Limits = serve.DefaultJSONLimits()
	}
	if opts.SolverLimit <= 0 {
		opts.SolverLimit = 1
	}
	if opts.Budget <= 0 {
		opts.Budget = serve.DefaultCacheBudget
	}
	ir := &IR{Name: s.Name, workloadIdx: map[string]int{}}
	if ir.Name == "" {
		ir.Name = "experiments"
	}

	for _, name := range s.Machines {
		m, err := machine.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("spec machines: %w", err)
		}
		ir.Machines = append(ir.Machines, m)
	}

	for _, w := range s.Workloads {
		if w.Name == "" {
			return nil, fmt.Errorf("workload with kind %q: missing name", w.Kind)
		}
		if _, dup := ir.workloadIdx[w.Name]; dup {
			return nil, fmt.Errorf("workload %q: duplicate name", w.Name)
		}
		if kinds := gen.Kinds(); !slices.Contains(kinds, strings.ToLower(w.Kind)) {
			return nil, fmt.Errorf("workload %q: unknown generator kind %q (known: %s)",
				w.Name, w.Kind, strings.Join(kinds, ", "))
		}
		if v, _ := gen.Estimate(&w.Spec); v <= 0 {
			return nil, fmt.Errorf("workload %q: generator %q parameters out of domain", w.Name, w.Kind)
		}
		if err := serve.AdmitGenSpec(&w.Spec, opts.Limits, opts.SolverLimit, opts.Budget); err != nil {
			return nil, fmt.Errorf("workload %q: %w", w.Name, err)
		}
		ir.workloadIdx[w.Name] = len(ir.Workloads)
		ir.Workloads = append(ir.Workloads, w)
	}

	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("spec %q: no experiments", ir.Name)
	}
	seen := map[string]bool{}
	for ei := range s.Experiments {
		e := &s.Experiments[ei]
		if e.Name == "" {
			return nil, fmt.Errorf("experiment %d: missing name", ei)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("experiment %q: duplicate name", e.Name)
		}
		seen[e.Name] = true
		cells, err := compileExperiment(ir, ei, e)
		if err != nil {
			return nil, fmt.Errorf("experiment %q: %w", e.Name, err)
		}
		ir.Experiments = append(ir.Experiments, *e)
		ir.Cells = append(ir.Cells, cells...)
	}
	return ir, nil
}

// graphCellKinds require a workload; graph-free kinds must not name one.
var graphCellKinds = map[string]bool{
	"graphstat": true, "analyze": true, "wmax": true, "optimal": true,
	"play": true, "prbw": true, "sweep": true,
}

var expKinds = []string{
	"analyze", "balance", "graphstat", "optimal", "play", "prbw",
	"solver", "sweep", "table1", "wmax",
}

func compileExperiment(ir *IR, ei int, e *Experiment) ([]Cell, error) {
	known := false
	for _, k := range expKinds {
		if e.Kind == k {
			known = true
		}
	}
	if !known {
		return nil, fmt.Errorf("unknown experiment kind %q (known: %s)", e.Kind, strings.Join(expKinds, ", "))
	}

	var w *Workload
	if graphCellKinds[e.Kind] {
		if e.Workload == "" {
			return nil, fmt.Errorf("kind %q needs a workload", e.Kind)
		}
		var ok bool
		if w, ok = ir.WorkloadByName(e.Workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", e.Workload)
		}
	} else if e.Workload != "" {
		return nil, fmt.Errorf("kind %q does not take a workload", e.Kind)
	}

	graphID := ""
	if w != nil {
		graphID = serve.HashID([]byte(gen.Key(&w.Spec)))
	}

	var cells []Cell
	add := func(params Params, engine string, body []byte, machines []machine.Machine) {
		c := Cell{
			Exp: e.Name, ExpIndex: ei, Index: len(cells),
			Kind: e.Kind, Workload: e.Workload, GraphID: graphID,
			Engine: engine, Body: body, Params: params, Heavy: e.Heavy,
		}
		c.Key = cellKey(graphID, e.Kind, params, machines)
		cells = append(cells, c)
	}

	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("exp/spec: marshal request body: %v", err))
		}
		return b
	}

	switch e.Kind {
	case "table1":
		if len(ir.Machines) == 0 {
			return nil, fmt.Errorf("table1 needs a non-empty machines list")
		}
		add(Params{}, "", nil, ir.Machines)

	case "balance":
		switch e.Family {
		case "cg", "gmres":
			if _, err := refMachine(e); err != nil {
				return nil, err
			}
			if len(ir.Machines) == 0 {
				return nil, fmt.Errorf("balance family %q needs a non-empty machines list", e.Family)
			}
			if e.Dim <= 0 || e.N <= 0 {
				return nil, fmt.Errorf("balance family %q needs dim > 0 and n > 0", e.Family)
			}
			p := Params{Family: e.Family, Machine: e.Machine, Dim: e.Dim, N: e.N}
			if e.Family == "cg" {
				if e.Iterations <= 0 {
					return nil, fmt.Errorf("balance family cg needs iterations > 0")
				}
				p.Iterations = e.Iterations
			} else {
				if len(e.MSweep) == 0 {
					return nil, fmt.Errorf("balance family gmres needs a non-empty m_sweep")
				}
				p.MSweep = e.MSweep
			}
			ms, err := balanceMachines(ir, e)
			if err != nil {
				return nil, err
			}
			add(p, "", nil, ms)
		case "jacobi":
			if _, err := refMachine(e); err != nil {
				return nil, err
			}
			if e.MaxDim <= 0 {
				return nil, fmt.Errorf("balance family jacobi needs max_dim > 0")
			}
			ms, err := balanceMachines(ir, e)
			if err != nil {
				return nil, err
			}
			add(Params{Family: e.Family, Machine: e.Machine, MaxDim: e.MaxDim}, "", nil, ms)
		case "composite":
			if e.N <= 0 {
				return nil, fmt.Errorf("balance family composite needs n > 0")
			}
			add(Params{Family: e.Family, N: e.N}, "", nil, nil)
		default:
			return nil, fmt.Errorf("unknown balance family %q (want cg, gmres, jacobi or composite)", e.Family)
		}

	case "solver":
		switch e.Family {
		case "heat":
			if e.N <= 0 || e.Steps <= 0 {
				return nil, fmt.Errorf("solver family heat needs n > 0 and steps > 0")
			}
			alpha := e.Alpha
			if alpha == 0 {
				alpha = 0.4
			}
			add(Params{Family: e.Family, N: e.N, Steps: e.Steps, Alpha: alpha}, "", nil, nil)
		case "cg":
			if e.Dim <= 0 || e.N <= 0 || e.Tolerance <= 0 {
				return nil, fmt.Errorf("solver family cg needs dim > 0, n > 0 and tolerance > 0")
			}
			add(Params{Family: e.Family, Dim: e.Dim, N: e.N, Tolerance: e.Tolerance}, "", nil, nil)
		case "gmres":
			if e.N <= 0 || e.Tolerance <= 0 || e.Restart <= 0 {
				return nil, fmt.Errorf("solver family gmres needs n > 0, tolerance > 0 and restart > 0")
			}
			add(Params{Family: e.Family, N: e.N, Tolerance: e.Tolerance, Restart: e.Restart}, "", nil, nil)
		default:
			return nil, fmt.Errorf("unknown solver family %q (want heat, cg or gmres)", e.Family)
		}

	case "graphstat":
		add(Params{CriticalPath: e.CriticalPath}, "", nil, nil)

	case "wmax":
		body := marshal(struct {
			Candidates int `json:"candidates,omitempty"`
		}{e.Candidates})
		add(Params{Candidates: e.Candidates}, "wmax", body, nil)

	case "analyze":
		if len(e.S) == 0 {
			return nil, fmt.Errorf("analyze needs a non-empty s list")
		}
		for _, s := range e.S {
			if s < 1 {
				return nil, fmt.Errorf("analyze: s = %d out of domain", s)
			}
			body := marshal(struct {
				S          int `json:"s"`
				Candidates int `json:"candidates,omitempty"`
			}{s, e.Candidates})
			add(Params{S: s, Candidates: e.Candidates}, "analyze", body, nil)
		}

	case "optimal":
		if len(e.S) == 0 {
			return nil, fmt.Errorf("optimal needs a non-empty s list")
		}
		variant, err := normVariant(e.Variant)
		if err != nil {
			return nil, err
		}
		for _, s := range e.S {
			if s < 1 {
				return nil, fmt.Errorf("optimal: s = %d out of domain", s)
			}
			body := marshal(struct {
				Variant   string `json:"variant,omitempty"`
				S         int    `json:"s"`
				MaxStates int    `json:"max_states,omitempty"`
			}{variant, s, e.MaxStates})
			add(Params{S: s, Variant: variant, MaxStates: e.MaxStates}, "optimal", body, nil)
		}

	case "play":
		if len(e.S) == 0 {
			return nil, fmt.Errorf("play needs a non-empty s list")
		}
		variant, err := normVariant(e.Variant)
		if err != nil {
			return nil, err
		}
		policies, err := normPolicies(e.Policies)
		if err != nil {
			return nil, err
		}
		for _, s := range e.S {
			if s < 1 {
				return nil, fmt.Errorf("play: s = %d out of domain", s)
			}
			for _, pol := range policies {
				body := marshal(struct {
					Variant string `json:"variant,omitempty"`
					S       int    `json:"s"`
					Policy  string `json:"policy,omitempty"`
				}{variant, s, pol})
				add(Params{S: s, Variant: variant, Policy: pol}, "play", body, nil)
			}
		}

	case "prbw":
		switch e.Assignment {
		case "", "single", "roundrobin":
			asg := e.Assignment
			if asg == "" {
				asg = "single"
			}
			if e.P < 1 || e.S1 < 1 || e.SL < 1 {
				return nil, fmt.Errorf("prbw assignment %q needs p, s1, sl > 0", asg)
			}
			body := marshal(struct {
				P          int    `json:"p"`
				S1         int    `json:"s1"`
				SL         int    `json:"sl"`
				Assignment string `json:"assignment,omitempty"`
				Grain      int    `json:"grain,omitempty"`
			}{e.P, e.S1, e.SL, asg, e.Grain})
			add(Params{P: e.P, S1: e.S1, SL: e.SL, Assignment: asg, Grain: e.Grain}, "prbw", body, nil)
		case "blockgrid":
			if !strings.EqualFold(w.Kind, "jacobi") {
				return nil, fmt.Errorf("prbw assignment blockgrid needs a jacobi workload, got %q", w.Kind)
			}
			if e.ProcsPerNode < 1 || e.RegWords < 1 || e.CacheWords < 1 || e.MemWords < 1 {
				return nil, fmt.Errorf("prbw assignment blockgrid needs procs_per_node, reg_words, cache_words, mem_words > 0")
			}
			nodes := e.Nodes
			if len(nodes) == 0 {
				return nil, fmt.Errorf("prbw assignment blockgrid needs a non-empty nodes list")
			}
			for _, nd := range nodes {
				if nd < 1 {
					return nil, fmt.Errorf("prbw: nodes = %d out of domain", nd)
				}
				add(Params{
					Assignment: "blockgrid", Nodes: nd, ProcsPerNode: e.ProcsPerNode,
					RegWords: e.RegWords, CacheWords: e.CacheWords, MemWords: e.MemWords,
				}, "", nil, nil)
			}
		default:
			return nil, fmt.Errorf("unknown prbw assignment %q (want single, roundrobin or blockgrid)", e.Assignment)
		}

	case "sweep":
		if len(e.S) == 0 {
			return nil, fmt.Errorf("sweep needs a non-empty s list")
		}
		policies, err := normPolicies(e.Policies)
		if err != nil {
			return nil, err
		}
		schedules := e.Schedules
		if len(schedules) == 0 {
			schedules = []string{"topo"}
		}
		nodes := e.Nodes
		if len(nodes) == 0 {
			nodes = []int{1}
		}
		switch e.Owner {
		case "":
		case "blockgrid":
			if !strings.EqualFold(w.Kind, "jacobi") {
				return nil, fmt.Errorf("sweep owner blockgrid needs a jacobi workload, got %q", w.Kind)
			}
		default:
			return nil, fmt.Errorf("unknown sweep owner %q (want blockgrid)", e.Owner)
		}
		switch e.Bound {
		case "":
		case "jacobi":
			if !strings.EqualFold(w.Kind, "jacobi") {
				return nil, fmt.Errorf("sweep bound jacobi needs a jacobi workload, got %q", w.Kind)
			}
		case "matmul":
			if !strings.EqualFold(w.Kind, "matmul") {
				return nil, fmt.Errorf("sweep bound matmul needs a matmul workload, got %q", w.Kind)
			}
		default:
			return nil, fmt.Errorf("unknown sweep bound %q (want jacobi or matmul)", e.Bound)
		}
		for _, sched := range schedules {
			switch sched {
			case "topo":
			case "skewed":
				if !strings.EqualFold(w.Kind, "jacobi") {
					return nil, fmt.Errorf("sweep schedule skewed needs a jacobi workload, got %q", w.Kind)
				}
			case "blocked":
				if !strings.EqualFold(w.Kind, "matmul") {
					return nil, fmt.Errorf("sweep schedule blocked needs a matmul workload, got %q", w.Kind)
				}
			default:
				return nil, fmt.Errorf("unknown sweep schedule %q (want topo, skewed or blocked)", sched)
			}
		}
		for _, s := range e.S {
			if s < 1 {
				return nil, fmt.Errorf("sweep: s = %d out of domain", s)
			}
			for _, pol := range policies {
				for _, sched := range schedules {
					for _, nd := range nodes {
						if nd < 1 {
							return nil, fmt.Errorf("sweep: nodes = %d out of domain", nd)
						}
						params := Params{S: s, Policy: pol, Schedule: sched, Nodes: nd, Owner: e.Owner, Bound: e.Bound}
						if sched == "topo" && e.Owner == "" && nd == 1 {
							// Expressible as one daemon simulate request.
							body := marshal(struct {
								Nodes     int    `json:"nodes"`
								FastWords int    `json:"fast_words"`
								Policy    string `json:"policy,omitempty"`
							}{nd, s, pol})
							add(params, "simulate", body, nil)
						} else {
							add(params, "", nil, nil)
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("kind %q compiled to zero cells", e.Kind)
	}
	return cells, nil
}

// refMachine resolves the experiment's reference machine, required for
// balance families that derive processor counts from it.
func refMachine(e *Experiment) (machine.Machine, error) {
	if e.Machine == "" {
		return machine.Machine{}, fmt.Errorf("balance family %q needs a machine", e.Family)
	}
	m, err := machine.Lookup(e.Machine)
	if err != nil {
		return machine.Machine{}, err
	}
	return m, nil
}

// balanceMachines returns the machines a balance cell's result depends on:
// the spec's machine list plus the reference machine.
func balanceMachines(ir *IR, e *Experiment) ([]machine.Machine, error) {
	ms := append([]machine.Machine(nil), ir.Machines...)
	if e.Machine != "" {
		m, err := machine.Lookup(e.Machine)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func normVariant(v string) (string, error) {
	switch strings.ToLower(v) {
	case "", "rbw":
		return "rbw", nil
	case "hongkung", "hk", "redblue":
		return "hongkung", nil
	default:
		return "", fmt.Errorf("unknown game variant %q (want rbw or hongkung)", v)
	}
}

func normPolicies(ps []string) ([]string, error) {
	if len(ps) == 0 {
		return []string{"belady"}, nil
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		switch strings.ToLower(p) {
		case "belady":
			out[i] = "belady"
		case "lru":
			out[i] = "lru"
		default:
			return nil, fmt.Errorf("unknown eviction policy %q (want belady or lru)", p)
		}
	}
	return out, nil
}

// cellKey computes the content address of a cell.  Machine fingerprints are
// included only for machine-dependent kinds, so editing the catalog cannot
// serve stale balance rows while leaving graph-engine results cached.
func cellKey(graphID, kind string, params Params, machines []machine.Machine) string {
	h := sha256.New()
	io.WriteString(h, "cdagx/result/v1\x00")
	io.WriteString(h, graphID)
	h.Write([]byte{0})
	io.WriteString(h, kind)
	h.Write([]byte{0})
	pj, err := json.Marshal(params)
	if err != nil {
		panic(fmt.Sprintf("exp/spec: marshal params: %v", err))
	}
	h.Write(pj)
	for _, m := range machines {
		vb, _ := m.VerticalBalance()
		hb, _ := m.HorizontalBalance()
		fmt.Fprintf(h, "\x00%s|%d|%d|%g|%g|%g|%d", m.Name, m.Nodes, m.CoresPerNode,
			m.FlopsPerCore, vb, hb, m.CacheCapacityWords())
	}
	return hex.EncodeToString(h.Sum(nil))
}

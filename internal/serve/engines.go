package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"

	"cdagio/internal/cdag"
	"cdagio/internal/core"
	"cdagio/internal/graphalg"
	"cdagio/internal/memsim"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
	"cdagio/internal/wavefront"
)

// engineClass splits the engines into admission classes: heavy engines run
// min-cut scans or exponential searches and are gated (and shed) separately
// from the light players and probes, so an overload of w^max requests never
// starves a cheap wavefront probe.
type engineClass int

const (
	classLight engineClass = iota
	classHeavy
)

// defaultCandidateSample matches the analyzer's default degree-ranked
// candidate sample size for w^max scans.
const defaultCandidateSample = 32

// engines maps the URL engine name to its admission class.  This is also the
// routing whitelist: names outside it are 404s.
var engines = map[string]engineClass{
	"analyze":   classHeavy,
	"wmax":      classHeavy,
	"optimal":   classHeavy,
	"wavefront": classLight,
	"dominator": classLight,
	"play":      classLight,
	"prbw":      classLight,
	"simulate":  classLight,
	"sweep":     classLight,
}

// decodeBody strictly decodes an engine request body into dst.  An empty
// body selects all defaults.
func decodeBody(body []byte, dst any) error {
	if len(bytes.TrimSpace(body)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return invalidf("request body: %v", err)
	}
	return nil
}

func parseVariant(s string) (pebble.Variant, error) {
	switch strings.ToLower(s) {
	case "", "rbw":
		return pebble.RBW, nil
	case "hongkung", "hk", "redblue":
		return pebble.HongKung, nil
	default:
		return 0, invalidf("unknown game variant %q (want rbw or hongkung)", s)
	}
}

func parsePebblePolicy(s string) (pebble.EvictionPolicy, error) {
	switch strings.ToLower(s) {
	case "", "belady":
		return pebble.Belady, nil
	case "lru":
		return pebble.LRU, nil
	default:
		return 0, invalidf("unknown eviction policy %q (want belady or lru)", s)
	}
}

func parseMemsimPolicy(s string) (memsim.Policy, error) {
	switch strings.ToLower(s) {
	case "", "belady":
		return memsim.Belady, nil
	case "lru":
		return memsim.LRU, nil
	default:
		return 0, invalidf("unknown replacement policy %q (want belady or lru)", s)
	}
}

// checkVertices validates request-supplied vertex IDs against the graph and
// converts them; the engines index arrays with these, so range errors must
// be caught here, not by a panic five frames down.
func checkVertices(g *cdag.Graph, raw []int32, what string) ([]cdag.VertexID, error) {
	n := int32(g.NumVertices())
	out := make([]cdag.VertexID, len(raw))
	for i, v := range raw {
		if v < 0 || v >= n {
			return nil, invalidf("%s[%d] = %d out of range [0, %d)", what, i, v, n)
		}
		out[i] = cdag.VertexID(v)
	}
	return out, nil
}

// boundJSON is the wire form of a bounds.Bound.
type boundJSON struct {
	Value       float64 `json:"value"`
	Kind        string  `json:"kind"`
	Technique   string  `json:"technique"`
	Assumptions string  `json:"assumptions,omitempty"`
}

// EngineLimits carries the per-request admission limits RunEngine enforces;
// the daemon fills it from its Config, batch callers (cdagx) from their own
// budgets.
type EngineLimits struct {
	// MaxSweepJobs bounds the number of memsim jobs one sweep request may
	// name.  Zero means unlimited.
	MaxSweepJobs int
}

// runEngine executes one engine request under the daemon's configured limits.
func (s *Server) runEngine(ctx context.Context, ws *core.Workspace, engine string, body []byte) (any, error) {
	return RunEngine(ctx, ws, engine, body, EngineLimits{MaxSweepJobs: s.cfg.MaxSweepJobs})
}

// RunEngine executes one engine request against a Workspace and returns the
// JSON-marshalable response payload.  This is the single engine dispatcher
// shared by the daemon's HTTP handlers and cdagx's local executor: both sides
// marshal the same payload, so a cell computed in-process is byte-identical
// to the same cell served by a remote cdagd.  Deadlines and admission have
// already been applied by the caller; everything below runs under ctx.
func RunEngine(ctx context.Context, ws *core.Workspace, engine string, body []byte, lim EngineLimits) (any, error) {
	g := ws.Graph()
	switch engine {
	case "wmax":
		var req struct {
			Candidates  int `json:"candidates,omitempty"`  // 0 default sample, <0 all vertices, >0 sample size
			Concurrency int `json:"concurrency,omitempty"` // 0 = GOMAXPROCS
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		var cands []cdag.VertexID
		if req.Candidates >= 0 {
			k := req.Candidates
			if k == 0 {
				k = defaultCandidateSample
			}
			cands = wavefront.TopCandidates(g, k)
		}
		w, at, err := ws.WMax(ctx, cands, graphalg.WMaxOptions{Concurrency: req.Concurrency})
		if err != nil {
			return nil, err
		}
		return map[string]any{"wmax": w, "at": int32(at)}, nil

	case "analyze":
		var req struct {
			S           int `json:"s"`
			Candidates  int `json:"candidates,omitempty"`
			Concurrency int `json:"concurrency,omitempty"`
			ExactLimit  int `json:"exact_optimal_limit,omitempty"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		a, err := ws.Analyze(ctx, core.Options{
			FastMemory:          req.S,
			WavefrontCandidates: req.Candidates,
			Concurrency:         req.Concurrency,
			ExactOptimalLimit:   req.ExactLimit,
		})
		if err != nil {
			return nil, err
		}
		lbs := make([]boundJSON, len(a.LowerBounds))
		for i, b := range a.LowerBounds {
			lbs[i] = boundJSON{Value: b.Value, Kind: b.Kind.String(), Technique: b.Technique, Assumptions: b.Assumptions}
		}
		return map[string]any{
			"s":            a.FastMemory,
			"wmax":         a.WMax,
			"wmax_at":      int32(a.WMaxAt),
			"measured_io":  a.MeasuredIO,
			"schedule":     a.ScheduleUsed,
			"gap":          a.Gap(),
			"lower_bounds": lbs,
			"upper_bound": boundJSON{Value: a.Upper.Value, Kind: a.Upper.Kind.String(),
				Technique: a.Upper.Technique, Assumptions: a.Upper.Assumptions},
		}, nil

	case "optimal":
		var req struct {
			Variant   string `json:"variant,omitempty"`
			S         int    `json:"s"`
			MaxStates int    `json:"max_states,omitempty"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		variant, err := parseVariant(req.Variant)
		if err != nil {
			return nil, err
		}
		if req.S < 1 {
			return nil, invalidf("s = %d: need at least one red pebble", req.S)
		}
		io, err := ws.OptimalIO(ctx, variant, req.S, pebble.OptimalOptions{MaxStates: req.MaxStates})
		if err != nil {
			return nil, err
		}
		return map[string]any{"optimal_io": io}, nil

	case "wavefront":
		var req struct {
			Vertex int32 `json:"vertex"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		vs, err := checkVertices(g, []int32{req.Vertex}, "vertex")
		if err != nil {
			return nil, err
		}
		w, err := ws.WavefrontAt(ctx, vs[0])
		if err != nil {
			return nil, err
		}
		return map[string]any{"wavefront": w}, nil

	case "dominator":
		var req struct {
			Targets []int32 `json:"targets"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		if len(req.Targets) == 0 {
			return nil, invalidf("dominator: need at least one target vertex")
		}
		vs, err := checkVertices(g, req.Targets, "targets")
		if err != nil {
			return nil, err
		}
		target := cdag.NewVertexSet(g.NumVertices())
		target.AddAll(vs)
		k, dom, err := ws.MinDominatorSize(ctx, target)
		if err != nil {
			return nil, err
		}
		out := make([]int32, len(dom))
		for i, v := range dom {
			out[i] = int32(v)
		}
		return map[string]any{"size": k, "dominator": out}, nil

	case "play":
		var req struct {
			Variant string  `json:"variant,omitempty"`
			S       int     `json:"s"`
			Policy  string  `json:"policy,omitempty"`
			Order   []int32 `json:"order,omitempty"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		variant, err := parseVariant(req.Variant)
		if err != nil {
			return nil, err
		}
		policy, err := parsePebblePolicy(req.Policy)
		if err != nil {
			return nil, err
		}
		var order []cdag.VertexID
		if req.Order != nil {
			if order, err = checkVertices(g, req.Order, "order"); err != nil {
				return nil, err
			}
		}
		res, err := ws.PlayCtx(ctx, variant, req.S, order, policy, false)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"loads": res.Loads, "stores": res.Stores, "io": res.IO(), "moves": res.Moves,
		}, nil

	case "prbw":
		var req struct {
			P          int    `json:"p"`
			S1         int    `json:"s1"`
			SL         int    `json:"sl"`
			Assignment string `json:"assignment,omitempty"` // "single" or "roundrobin"
			Grain      int    `json:"grain,omitempty"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		topo := prbw.TwoLevel(req.P, req.S1, req.SL)
		if err := topo.Validate(); err != nil {
			return nil, invalidf("topology: %v", err)
		}
		var asg prbw.Assignment
		switch strings.ToLower(req.Assignment) {
		case "", "single":
			asg = prbw.SingleProcessor(g)
		case "roundrobin":
			asg = prbw.RoundRobin(g, req.P, req.Grain)
		default:
			return nil, invalidf("unknown assignment %q (want single or roundrobin)", req.Assignment)
		}
		stats, err := ws.PlayParallel(ctx, topo, asg)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"move_ups":    stats.MoveUpsInto,
			"move_downs":  stats.MoveDownsInto,
			"inputs":      stats.InputsAt,
			"outputs":     stats.OutputsAt,
			"remote_gets": stats.RemoteGetsAt,
			"computes":    stats.ComputesBy,
		}, nil

	case "simulate":
		var req simulateRequest
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		cfg, err := req.config()
		if err != nil {
			return nil, err
		}
		stats, err := ws.Simulate(ctx, cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		return SimStatsJSON(stats), nil

	case "sweep":
		var req struct {
			Jobs    []simulateRequest `json:"jobs"`
			Workers int               `json:"workers,omitempty"`
		}
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		if len(req.Jobs) == 0 {
			return nil, invalidf("sweep: need at least one job")
		}
		if max := lim.MaxSweepJobs; max > 0 && len(req.Jobs) > max {
			return nil, limitf("sweep: %d jobs exceeds per-request limit %d", len(req.Jobs), max)
		}
		jobs := make([]memsim.Job, len(req.Jobs))
		for i := range req.Jobs {
			cfg, err := req.Jobs[i].config()
			if err != nil {
				return nil, err
			}
			jobs[i] = memsim.Job{Cfg: cfg}
		}
		all, err := ws.SimulateSweep(ctx, jobs, req.Workers)
		if err != nil {
			return nil, err
		}
		out := make([]map[string]any, len(all))
		for i, st := range all {
			out[i] = SimStatsJSON(st)
		}
		return map[string]any{"results": out}, nil

	default:
		return nil, notFoundf("unknown engine %q", engine)
	}
}

// simulateRequest is one memsim machine configuration on the wire.
type simulateRequest struct {
	Nodes     int    `json:"nodes"`
	FastWords int    `json:"fast_words"`
	Policy    string `json:"policy,omitempty"`
}

func (r *simulateRequest) config() (memsim.Config, error) {
	policy, err := parseMemsimPolicy(r.Policy)
	if err != nil {
		return memsim.Config{}, err
	}
	if r.Nodes < 1 {
		return memsim.Config{}, invalidf("simulate: nodes = %d, need at least 1", r.Nodes)
	}
	if r.FastWords < 1 {
		return memsim.Config{}, invalidf("simulate: fast_words = %d, need at least 1", r.FastWords)
	}
	return memsim.Config{Nodes: r.Nodes, FastWords: r.FastWords, Policy: policy}, nil
}

// SimStatsJSON renders memsim statistics in the daemon's wire shape; cdagx
// reuses it for locally-simulated cells so their cached bodies match what a
// remote daemon would have returned.
func SimStatsJSON(st *memsim.Stats) map[string]any {
	return map[string]any{
		"loads":       st.LoadsPerNode,
		"stores":      st.StoresPerNode,
		"remote_gets": st.RemoteGetsPerNode,
		"computes":    st.ComputesPerNode,
	}
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/store"
)

// uploadRequest is the body of POST /v1/graphs: exactly one of Graph (an
// inline CDAG in the cdag JSON schema) or Gen (a generator spec) must be set.
type uploadRequest struct {
	Graph json.RawMessage `json:"graph,omitempty"`
	Gen   *GenSpec        `json:"gen,omitempty"`
}

// GenSpec is a generator spec: one of the catalog's CDAG families
// (internal/gen) and its size parameters.
type GenSpec = gen.Spec

// genLabelBytesPerVertex approximates the label payload of the generators
// ("u12[3456]"-style names) for the pre-build footprint estimate.
const genLabelBytesPerVertex = 12

// AdmitGenSpec rejects a generator spec whose declared size violates the
// upload limits or whose estimated Workspace footprint (with solverLimit
// outstanding cut solvers) cannot fit the byte budget — before a single
// vertex is allocated.  This is the same admission contract inline uploads
// get from ReadJSONLimits plus cache.add: a two-line request body must not
// be able to OOM the daemon by naming a tens-of-gigabytes generator.  The
// post-build cache admission still runs on the exact footprint; this
// pre-check only has to be safely conservative.  Exported so cdagx can fail
// oversized spec cells at compile time under the same ceilings a daemon
// would apply at upload time.
func AdmitGenSpec(spec *GenSpec, lim cdag.JSONLimits, solverLimit int, budget int64) error {
	v, e := gen.Estimate(spec)
	if lim.MaxVertices > 0 && v > int64(lim.MaxVertices) {
		return limitf("generator %q: ~%d vertices exceeds limit %d", spec.Kind, v, lim.MaxVertices)
	}
	if lim.MaxEdges > 0 && e > int64(lim.MaxEdges) {
		return limitf("generator %q: ~%d edges exceeds limit %d", spec.Kind, e, lim.MaxEdges)
	}
	fp := cdag.EstimateFootprintBytes(int(v), int(e), max(v, 0)*genLabelBytesPerVertex) +
		int64(solverLimit)*graphalg.EstimateSolverFootprintCounts(v, e)
	if budget > 0 && fp > budget {
		return limitf("generator %q: estimated footprint %d bytes exceeds cache budget %d bytes",
			spec.Kind, fp, budget)
	}
	return nil
}

// checkGenSpec applies AdmitGenSpec under the daemon's configured limits.
func (s *Server) checkGenSpec(spec *GenSpec) error {
	return AdmitGenSpec(spec, s.cfg.JSONLimits, s.cfg.SolverLimit, s.cfg.CacheBudget)
}

// BuildGen constructs the spec's graph; a spec the catalog rejects is
// invalid input.
func BuildGen(spec *GenSpec) (*cdag.Graph, error) {
	b, err := gen.Build(spec)
	if err != nil {
		return nil, invalidf("%v", err)
	}
	return b.Graph, nil
}

// GenKey renders the canonical identity string of a generator spec.
func GenKey(spec *GenSpec) string { return gen.Key(spec) }

// HashID renders a content identity string as the daemon's graph ID.
func HashID(identity []byte) string {
	sum := sha256.Sum256(identity)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// ingested is one upload after validation: the graph, its content-hash ID,
// and the store record that makes it durable (the canonical graph JSON for
// inline uploads; the canonical spec JSON for generators — rebuilding a
// stencil from its spec on recovery is far cheaper than parsing a
// million-vertex JSON dump).
type ingested struct {
	g   *cdag.Graph
	id  string
	rec store.Record
}

// ingestGraph turns an upload request into a validated graph plus its
// content-hash ID.  Inline graphs decode under the configured adversarial
// limits and are hashed over their canonical re-marshaled form (so
// whitespace and field order in the upload do not split the cache);
// generator graphs are hashed over the canonical spec key, which is far
// cheaper than marshaling a million-vertex stencil.  Every graph — uploaded
// or generated — must pass RBW validation before it reaches an engine: the
// engines' topological-order entry points panic on cycles, and that panic
// must stay unreachable from request data.
func (s *Server) ingestGraph(body []byte) (*ingested, error) {
	var req uploadRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, invalidf("upload body: %v", err)
	}
	switch {
	case req.Graph != nil && req.Gen != nil:
		return nil, invalidf("upload body: graph and gen are mutually exclusive")
	case req.Graph == nil && req.Gen == nil:
		return nil, invalidf("upload body: need a graph or a gen spec")
	}

	var (
		g        *cdag.Graph
		identity []byte
		rec      store.Record
	)
	if req.Gen != nil {
		if err := s.checkGenSpec(req.Gen); err != nil {
			return nil, err
		}
		var err error
		if g, err = BuildGen(req.Gen); err != nil {
			return nil, err
		}
		identity = []byte(GenKey(req.Gen))
		spec, err := json.Marshal(req.Gen)
		if err != nil {
			return nil, internalf("canonicalize gen spec: %v", err)
		}
		rec = store.Record{Kind: store.KindGraphSpec, Value: spec}
	} else {
		var err error
		if g, err = cdag.ReadJSONLimits(bytes.NewReader(req.Graph), s.cfg.JSONLimits); err != nil {
			return nil, classify(err)
		}
		if identity, err = json.Marshal(g); err != nil {
			return nil, internalf("canonicalize graph: %v", err)
		}
		rec = store.Record{Kind: store.KindGraphJSON, Value: identity}
	}
	if err := g.Validate(cdag.ValidateRBW); err != nil {
		return nil, invalidf("graph rejected: %v", err)
	}
	rec.Key = HashID(identity)
	return &ingested{g: g, id: rec.Key, rec: rec}, nil
}

// requestHash is the memoization key of an engine request: engine name plus
// the raw request body.  The engines are deterministic under a live context,
// so one hash maps to exactly one response body.
func requestHash(engine string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(engine))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

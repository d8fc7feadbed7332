package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// mixGraph is what the op stream needs to know about a query graph to draw
// valid requests for it.
type mixGraph struct {
	vertices int
	maxIn    int // largest in-degree: every capacity must exceed it
}

// mixReq is one distinct engine request: a graph, an engine and a body.
type mixReq struct {
	graph  int
	engine string
	body   []byte
}

// mixOp is one op of the stream: an engine request (req ≥ 0) or an upload
// of a fresh inline graph (upload ≥ 0).
type mixOp struct {
	req    int
	upload int
}

// mixStream is the whole op stream of a cdagd-mix run, drawn from the seed
// before the clock starts.
type mixStream struct {
	ops     []mixOp
	reqs    []mixReq
	uploads [][]byte // upload request bodies: {"graph": {...}}
}

// The stream is drawn in blocks of blockOps ops, each holding exactly
// blockUploads uploads of fresh graphs and blockRepeats re-sent bodies, in a
// seeded order; the remaining ops send fresh bodies.  Re-sent bodies favour
// early (popular) ones, which with the four distinct wmax bodies makes about
// half of all engine requests memo hits.  Fresh bodies take their engine and
// graph from a shuffled deck holding every pair in proportion to
// engineWeights, and a fresh body that happens to equal an earlier one is
// drawn again, so the hit share does not creep up along the stream.
// Stratifying the draw keeps the mix of cheap and costly requests the same
// from seed to seed, so a seed changes which requests are sent but not how
// much work they are.
const (
	blockOps     = 20
	blockUploads = 2
	blockRepeats = 8
	// redraws is how often a fresh body that repeats an earlier one is
	// drawn again before it is sent as a repeat (wmax has one body a graph).
	redraws = 32
)

// engineWeights sets how often a fresh engine body names each engine.  The
// first four are the requests `cdagx run -remote specs/paper.yaml` sends a
// daemon, one per engine cell of the spec: play (fig2-heat-play), simulate
// twice (the topological-order cells of matmul-io), analyze (heat-analyze)
// and wmax (heat-wmax).  The spec sends no prbw, sweep, wavefront or
// dominator request (its prbw and sweep cells run locally), so those four
// engines, which the daemon also serves, get the weight of the spec's least
// sent engine.
var engineWeights = []struct {
	engine string
	weight int
}{
	{"play", 1}, {"simulate", 2}, {"analyze", 1}, {"wmax", 1},
	{"prbw", 1}, {"sweep", 1}, {"wavefront", 1}, {"dominator", 1},
}

// genStream draws n ops for the given query graphs from seed.
func genStream(seed int64, n int, graphs []mixGraph) *mixStream {
	r := rand.New(rand.NewSource(seed))
	st := &mixStream{}
	index := map[string]int{}

	type card struct {
		graph  int
		engine string
	}
	var deck []card
	for gi := range graphs {
		for _, w := range engineWeights {
			for i := 0; i < w.weight; i++ {
				deck = append(deck, card{gi, w.engine})
			}
		}
	}
	next := len(deck)

	const (
		fresh = iota
		repeat
		upload
	)
	block := make([]int, blockOps)
	for len(st.ops) < n {
		for i := range block {
			switch {
			case i < blockUploads:
				block[i] = upload
			case i < blockUploads+blockRepeats:
				block[i] = repeat
			default:
				block[i] = fresh
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(st.ops) == n {
				break
			}
			switch {
			case kind == upload:
				st.ops = append(st.ops, mixOp{req: -1, upload: len(st.uploads)})
				st.uploads = append(st.uploads, uploadBody(r, seed, len(st.uploads)))
			case kind == repeat && len(st.reqs) > 0:
				i := int(float64(len(st.reqs)) * math.Pow(r.Float64(), 3))
				st.ops = append(st.ops, mixOp{req: i, upload: -1})
			default:
				if next == len(deck) {
					r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
					next = 0
				}
				c := deck[next]
				next++
				var key string
				var body []byte
				for try := 0; try < redraws; try++ {
					body = engineBody(r, c.engine, graphs[c.graph])
					key = fmt.Sprintf("%d\x00%s\x00%s", c.graph, c.engine, body)
					if _, seen := index[key]; !seen {
						break
					}
				}
				i, ok := index[key]
				if !ok {
					i = len(st.reqs)
					index[key] = i
					st.reqs = append(st.reqs, mixReq{graph: c.graph, engine: c.engine, body: body})
				}
				st.ops = append(st.ops, mixOp{req: i, upload: -1})
			}
		}
	}
	return st
}

// Body parameters follow the engine cells of specs/paper.yaml: the Belady
// policy and the RBW variant of every spec body, the spec's node counts
// (1, 2 and 4), its prbw machine (register file of 8 words up to a 96-word
// cache, 262144-word memory) and its sweeps of two to four jobs.  Fast
// memories start at the spec's smallest S (16) but reach 1024 where the
// spec stops at 128: a 20 s stream holds thousands of fresh bodies, and on
// the spec's range alone they would repeat one another and turn into memo
// hits.  Dominator targets (one to three vertices) have no source: no
// client in the repository sends dominator requests.
const (
	minFast  = 16
	maxFast  = 1024
	prbwRegs = 8
	prbwFast = 96
	prbwMem  = 262144
)

var specNodes = []int{1, 2, 4}

// engineBody draws a valid request body for engine on g: every capacity
// exceeds the graph's largest in-degree and every vertex is in range, so no
// request of the stream fails on a correct daemon.
func engineBody(r *rand.Rand, engine string, g mixGraph) []byte {
	capacity := func(lo, hi int) int {
		lo = max(lo, g.maxIn+2)
		return lo + r.Intn(hi-lo+1)
	}
	nodes := func() int { return specNodes[r.Intn(len(specNodes))] }
	var v any
	switch engine {
	case "play":
		v = map[string]any{"variant": "rbw", "s": capacity(minFast, maxFast), "policy": "belady"}
	case "prbw":
		req := map[string]any{"p": nodes(), "s1": capacity(prbwRegs, prbwFast), "sl": prbwMem}
		if r.Intn(2) == 0 {
			req["assignment"] = "roundrobin"
		}
		v = req
	case "simulate":
		v = map[string]any{"nodes": nodes(), "fast_words": capacity(minFast, maxFast), "policy": "belady"}
	case "sweep":
		jobs := make([]map[string]any, 2+r.Intn(3))
		for i := range jobs {
			jobs[i] = map[string]any{"nodes": nodes(), "fast_words": capacity(minFast, maxFast), "policy": "belady"}
		}
		v = map[string]any{"jobs": jobs}
	case "wavefront":
		v = map[string]any{"vertex": r.Intn(g.vertices)}
	case "dominator":
		targets := make([]int, 1+r.Intn(3))
		for i := range targets {
			targets[i] = r.Intn(g.vertices)
		}
		v = map[string]any{"targets": targets}
	case "wmax":
		// heat-wmax's body: the default 32-vertex sample.
		v = map[string]any{}
	case "analyze":
		// heat-analyze's body: S only, so the default 32-vertex sample.
		v = map[string]any{"s": capacity(minFast, maxFast)}
	default:
		panic("unknown engine " + engine)
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of ints and strings always marshal
	}
	return body
}

// uploadBody draws a distinct inline graph of 1000–1999 vertices: a layered
// random DAG whose first vertices are inputs, each later vertex reading one
// to three earlier ones, with every sink an output.  The name makes every
// upload of a run distinct.
func uploadBody(r *rand.Rand, seed int64, i int) []byte {
	n := 1000 + r.Intn(1000)
	inputs := 16 + r.Intn(48)
	var b strings.Builder
	fmt.Fprintf(&b, `{"graph":{"name":"up-%d-%d","vertices":%d,"edges":[`, seed, i, n)
	hasSucc := make([]bool, n)
	first := true
	for v := inputs; v < n; v++ {
		k := 1 + r.Intn(3)
		window := min(v, 64)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			u := v - 1 - r.Intn(window)
			if seen[u] {
				continue
			}
			seen[u] = true
			hasSucc[u] = true
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "[%d,%d]", u, v)
		}
	}
	b.WriteString(`],"inputs":[`)
	for v := 0; v < inputs; v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(`],"outputs":[`)
	first = true
	for v := inputs; v < n; v++ {
		if !hasSucc[v] {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%d", v)
		}
	}
	b.WriteString("]}}")
	return []byte(b.String())
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdagio/internal/cdag"
	"cdagio/internal/core"
	"cdagio/internal/serve"
	"cdagio/internal/store"
)

// mixSpecs are the query graphs cdagd-mix uploads as generator specs.
var mixSpecs = []serve.GenSpec{
	{Kind: "jacobi", Dim: 2, N: 36, Steps: 4, Stencil: "box"},
	{Kind: "cg", Dim: 2, N: 12, Iterations: 3},
	{Kind: "heat", N: 128, Steps: 16},
	{Kind: "fft", N: 512},
}

// mixClients is the closed loop's width: one connection, which sends its
// next request only after the previous reply.  With two (cdagx -remote's
// bounded pool on a two-core host) the daemon's CPU time per request
// scattered by a fifth from run to run, with one by a twentieth: two
// requests at once on two shared cores contend in ways that change from
// minute to minute.
const mixClients = 1

// replayWorkers is how many requests the output check replays at once.
const replayWorkers = 2

// mixOpsPerSecond sizes the pre-drawn op stream: more than twice the rate
// one client reaches on a two-core host, so the clock, not the stream, ends a
// run, while the pre-drawn uploads stay under 100 MB.  A run that exhausts
// the stream ends early and reports over the time used.
const mixOpsPerSecond = 1000

// mixRec is the client-side record of one op.
type mixRec struct {
	op         int
	start, end time.Duration // since the phase started
	status     int
	hit        bool
	body       []byte
	err        error
}

func (r *mixRec) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// mixCtx is what the cdagd-mix phases share.
type mixCtx struct {
	e      *env
	client *http.Client
	stream *mixStream
	graphs []*core.Workspace // local twins of the query graphs, for checks
	ids    []string          // daemon graph IDs of the query graphs

	// rss is the daemon's peak RSS when the mixRSSAt-th request of the run
	// completed, and rssErr the error reading it; rssRead says it was read.
	rss     float64
	rssErr  error
	rssRead bool
}

// mixRSSAt is the request at which the daemon's peak RSS is read.  The
// daemon keeps every computed body and uploaded graph, so its memory grows
// with the requests it has served; read at a fixed count, the peak does not
// depend on how fast the host let the run go.
const mixRSSAt = 2000

func newMixClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: mixClients, DisableCompression: true},
	}
}

// bootDaemon starts a daemon on a fresh journal and uploads the query graphs.
func (m *mixCtx) bootDaemon(ctx context.Context, name string) (*daemon, error) {
	dir := filepath.Join(m.e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, m.e.cdagd, dir, m.client)
	if err != nil {
		return nil, err
	}
	for i := range mixSpecs {
		body, _ := json.Marshal(map[string]any{"gen": &mixSpecs[i]})
		status, _, resp, err := post(ctx, m.client, d.base+"/v1/graphs", body)
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("upload %s: HTTP %d: %s", mixSpecs[i].Kind, status, resp)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err == nil {
			err = json.Unmarshal(resp, &info)
		}
		if err == nil && info.ID != m.ids[i] {
			err = fmt.Errorf("upload %s: graph id %s, want %s", mixSpecs[i].Kind, info.ID, m.ids[i])
		}
		if err != nil {
			d.kill()
			return nil, err
		}
	}
	return d, nil
}

// phase drives the closed loop against d for dur, or until the stream ends,
// starting at op first.  Traced phases record one span per request.
func (m *mixCtx) phase(ctx context.Context, d *daemon, first int, dur time.Duration, tr *tracer) ([]mixRec, time.Duration) {
	ops := m.stream.ops[first:]
	recs := make([]mixRec, len(ops))
	var next atomic.Int64
	var done atomic.Int64
	root := tr.begin("cdagd.http", -1, -1, nil)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				url, body := d.base+"/v1/graphs", []byte(nil)
				if op.req >= 0 {
					q := &m.stream.reqs[op.req]
					url = d.base + "/v1/graphs/" + m.ids[q.graph] + "/" + q.engine
					body = q.body
				} else {
					body = m.stream.uploads[op.upload]
				}
				t0 := time.Now()
				status, hit, resp, err := post(ctx, m.client, url, body)
				t1 := time.Now()
				recs[i] = mixRec{op: first + i, start: t0.Sub(start), end: t1.Sub(start), status: status, hit: hit, body: resp, err: err}
				if tr != nil {
					tr.add("cdagd.request", t0, t1, root, first+i, requestTags(m.stream, op, status, hit))
				}
				if first+int(done.Add(1)) == mixRSSAt && tr == nil {
					m.rss, m.rssErr = peakRSSMiB(d.pid())
					m.rssRead = true
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	tr.end(root)
	n := int(done.Load())
	return recs[:n], elapsed
}

func requestTags(st *mixStream, op mixOp, status int, hit bool) map[string]string {
	t := map[string]string{"status": fmt.Sprint(status), "kind": "upload"}
	if op.req >= 0 {
		t["kind"], t["engine"] = "engine", st.reqs[op.req].engine
		t["memo"] = "miss"
		if hit {
			t["memo"] = "hit"
		}
	}
	return t
}

// runMix measures cdagd-mix.
func runMix(ctx context.Context, e *env) (*outcome, error) {
	m := &mixCtx{e: e, client: newMixClient()}
	defer m.client.CloseIdleConnections()
	var infos []mixGraph
	for i := range mixSpecs {
		g, err := serve.BuildGen(&mixSpecs[i])
		if err != nil {
			return nil, err
		}
		maxIn := 0
		for v := 0; v < g.NumVertices(); v++ {
			maxIn = max(maxIn, g.InDegree(cdag.VertexID(v)))
		}
		infos = append(infos, mixGraph{vertices: g.NumVertices(), maxIn: maxIn})
		m.graphs = append(m.graphs, core.NewWorkspace(g))
		m.ids = append(m.ids, serve.HashID([]byte(serve.GenKey(&mixSpecs[i]))))
	}
	m.stream = genStream(e.seed, int(e.seconds.Seconds()*mixOpsPerSecond)+1000, infos)

	// Set-up: daemon boot, readiness and the query-graph uploads,
	// setupRepeats times; the last daemon serves the run.
	setup := &setups{}
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		d, err = m.bootDaemon(ctx, fmt.Sprintf("store-%d", i))
		if err != nil {
			return nil, err
		}
		setup.wall = append(setup.wall, secs(time.Since(t0)))
		c, err := procCPU(d.pid())
		if err != nil {
			d.kill()
			return nil, err
		}
		setup.cpu = append(setup.cpu, secs(c))
		if i < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	// kill is a no-op once the daemon has exited, so this only matters on
	// early returns.
	defer d.kill()

	o := &outcome{metrics: map[string]metric{}, detail: map[string]metric{}}
	if e.tr != nil {
		return o, m.traced(ctx, d, o, median(setup.wall))
	}

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	recs, elapsed := m.phase(ctx, d, 0, e.seconds, nil)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	if !m.rssRead {
		// A run too short to reach mixRSSAt reports the peak at its end.
		m.rss, m.rssErr = peakRSSMiB(d.pid())
		e.logf("only %d requests: peak RSS read at the end of the run, not at request %d", len(recs), mixRSSAt)
	}
	if m.rssErr != nil {
		return nil, m.rssErr
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	failed, _, err := m.verify(ctx, recs, nil)
	if err != nil {
		return nil, err
	}
	e.logf("checked %d requests in %.1fs", len(recs), time.Since(t0).Seconds())
	o.attempted, o.failed = len(recs), failed

	var hits, computes, uploads []float64
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		lat := ms(r.end - r.start)
		switch {
		case m.stream.ops[r.op].req < 0:
			uploads = append(uploads, lat)
		case r.hit:
			hits = append(hits, lat)
		default:
			computes = append(computes, lat)
		}
	}
	if _, ok := highestPercentile(len(computes)); !ok {
		return nil, fmt.Errorf("only %d computed requests: too few for a median", len(computes))
	}
	setup.put(o)
	o.metrics["peak_rss_mb"] = metric{m.rss, "MiB"}
	// The daemon's CPU time per request, all kinds, over the timed phase.
	o.metrics["op_ms"] = metric{ms(cpu1-cpu0) / float64(len(recs)), "ms"}
	o.detail["req_per_s"] = metric{mixRate(recs, elapsed), "1/s"}
	putLatency(o.detail, "hit", hits, 50, 99)
	putLatency(o.detail, "compute", computes, 50, 99)
	putLatency(o.detail, "upload", uploads, 50, 90)
	e.logf("%d requests in %.1fs: %d hits, %d computed, %d uploads", len(recs), elapsed.Seconds(),
		len(hits), len(computes), len(uploads))
	return o, nil
}

// mixRate is the closed loop's throughput: requests completed per second,
// the median over the phase's one-second windows, so that a stall or a burst
// of costly requests moves it by at most one window.  A phase shorter than a
// window reports its overall rate.
func mixRate(recs []mixRec, elapsed time.Duration) float64 {
	ends := make([]time.Duration, len(recs))
	for i := range recs {
		ends[i] = recs[i].end
	}
	if rates := windowRates(ends, elapsed, time.Second); len(rates) > 0 {
		return median(rates)
	}
	return float64(len(recs)) / elapsed.Seconds()
}

// putLatency records the named percentiles of xs that have enough samples
// beyond them; a percentile without them is left out rather than guessed.
func putLatency(dst map[string]metric, class string, xs []float64, ps ...float64) {
	top, ok := highestPercentile(len(xs))
	for _, p := range ps {
		if ok && p <= top {
			dst[fmt.Sprintf("%s_p%g_ms", class, p)] = metric{percentile(xs, p), "ms"}
		}
	}
}

// replayStats is what the traced verification measured per op.
type replayStats struct {
	lib     map[int]time.Duration // op → library time replaying it
	engine  map[string][]float64  // engine → RunEngine ms per computed body
	moves   []float64             // moves of replayed play bodies
	decode  []float64             // per-upload stage times, ms
	canon   []float64
	valid   []float64
	open    []float64
	appendT []float64
}

// verify checks every op of recs and returns how many failed.  Every
// response to one request must be byte-identical; every computed body must
// equal serve.RunEngine plus json.Marshal on the local twin of the graph;
// every upload must return the hash of its canonical JSON.  With a tracer
// the checks double as the replay phase: each call is a span, and uploads
// are also appended, fsynced, to a scratch journal.
func (m *mixCtx) verify(ctx context.Context, recs []mixRec, tr *tracer) (int, *replayStats, error) {
	bad := map[int]bool{}    // op → failed
	byReq := map[int][]int{} // req → indices into recs
	var uploadsSeen []int
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			bad[r.op] = true
			if r.err != nil {
				m.e.logf("op %d: %v", r.op, r.err)
			} else {
				m.e.logf("op %d: HTTP %d: %s", r.op, r.status, r.body)
			}
			continue
		}
		if q := m.stream.ops[r.op].req; q >= 0 {
			byReq[q] = append(byReq[q], i)
		} else {
			uploadsSeen = append(uploadsSeen, i)
		}
	}

	st := &replayStats{lib: map[int]time.Duration{}, engine: map[string][]float64{}}
	var jr *store.Store
	if tr != nil {
		var err error
		if jr, err = store.Open(filepath.Join(m.e.work, "replay-journal"), store.Options{}); err != nil {
			return 0, nil, err
		}
		defer jr.Close()
		// A fresh journal recovers nothing, but must be recovered before
		// it accepts appends.
		if _, err := jr.Recover(func(store.Record) {}); err != nil {
			return 0, nil, err
		}
	}

	// Engine requests, replayed by two workers.
	reqs := make([]int, 0, len(byReq))
	for q := range byReq {
		reqs = append(reqs, q)
	}
	sort.Ints(reqs)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < replayWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(reqs) {
					return
				}
				q := reqs[j]
				req := &m.stream.reqs[q]
				idx := byReq[q]
				op := recs[idx[0]].op
				sp := tr.begin("engine."+req.engine, -1, op, nil)
				t0 := time.Now()
				payload, err := serve.RunEngine(ctx, m.graphs[req.graph], req.engine, req.body, serve.EngineLimits{MaxSweepJobs: 256})
				tEngine := time.Since(t0)
				tr.end(sp)
				var want []byte
				if err == nil {
					sp = tr.begin("serve.marshal", -1, op, nil)
					want, err = json.Marshal(payload)
					tr.end(sp)
				}
				lib := time.Since(t0)
				if err == nil && jr != nil {
					sp = tr.begin("store.append", -1, op, nil)
					a0 := time.Now()
					err = jr.Append(store.Record{Kind: store.KindMemo, Key: m.ids[req.graph], Sub: fmt.Sprint(q), Value: want})
					mu.Lock()
					st.appendT = append(st.appendT, ms(time.Since(a0)))
					mu.Unlock()
					tr.end(sp)
				}
				mu.Lock()
				if err != nil {
					// Every op of the request fails against the empty body.
					m.e.logf("replay %s %s: %v", req.engine, req.body, err)
					want = nil
				}
				for _, i := range idx {
					if !bytes.Equal(recs[i].body, want) {
						if !bad[recs[i].op] {
							m.e.logf("op %d (%s %s): body %s, want %s", recs[i].op, req.engine, req.body, recs[i].body, want)
						}
						bad[recs[i].op] = true
					}
					st.lib[recs[i].op] = lib
				}
				st.engine[req.engine] = append(st.engine[req.engine], ms(tEngine))
				if p, ok := payload.(map[string]any); ok && req.engine == "play" {
					if moves, ok := p["moves"].(int); ok {
						st.moves = append(st.moves, float64(moves))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Uploads, in op order.
	lim := serve.DefaultJSONLimits()
	for _, i := range uploadsSeen {
		r := &recs[i]
		op := r.op
		var req struct {
			Graph json.RawMessage `json:"graph"`
		}
		if err := json.Unmarshal(m.stream.uploads[m.stream.ops[op].upload], &req); err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		sp := tr.begin("cdag.decode", -1, op, nil)
		g, err := cdag.ReadJSONLimits(bytes.NewReader(req.Graph), lim)
		tr.end(sp)
		t1 := time.Now()
		var canon []byte
		var id string
		if err == nil {
			sp = tr.begin("cdag.canon", -1, op, nil)
			canon, err = json.Marshal(g)
			id = serve.HashID(canon)
			tr.end(sp)
		}
		t2 := time.Now()
		if err == nil {
			sp = tr.begin("cdag.validate", -1, op, nil)
			err = g.Validate(cdag.ValidateRBW)
			tr.end(sp)
		}
		t3 := time.Now()
		var info struct {
			ID string `json:"id"`
		}
		if err != nil || json.Unmarshal(r.body, &info) != nil || info.ID != id {
			m.e.logf("upload op %d: response %s, want id %s (%v)", op, r.body, id, err)
			bad[op] = true
			continue
		}
		if tr == nil {
			continue
		}
		sp = tr.begin("store.append", -1, op, nil)
		err = jr.Append(store.Record{Kind: store.KindGraphJSON, Key: id, Value: canon})
		tr.end(sp)
		t4 := time.Now()
		if err != nil {
			m.e.logf("upload op %d: journal append: %v", op, err)
			bad[op] = true
			continue
		}
		sp = tr.begin("core.open", -1, op, nil)
		core.NewWorkspace(g)
		tr.end(sp)
		t5 := time.Now()
		st.decode = append(st.decode, ms(t1.Sub(t0)))
		st.canon = append(st.canon, ms(t2.Sub(t1)))
		st.valid = append(st.valid, ms(t3.Sub(t2)))
		st.appendT = append(st.appendT, ms(t4.Sub(t3)))
		st.open = append(st.open, ms(t5.Sub(t4)))
		st.lib[op] = t5.Sub(t0)
	}
	return len(bad), st, nil
}

// traced is the traced cdagd-mix run: an untraced HTTP phase for the
// overhead baseline, a traced HTTP phase on a fresh daemon over the same
// ops, then the replay of what the traced phase computed and uploaded.
func (m *mixCtx) traced(ctx context.Context, d *daemon, o *outcome, setup float64) error {
	half := m.e.seconds / 2
	base, baseElapsed := m.phase(ctx, d, 0, half, nil)
	if err := d.stop(); err != nil {
		return err
	}
	d, err := m.bootDaemon(ctx, "store-traced")
	if err != nil {
		return err
	}
	defer d.kill()
	before, err := d.healthz(m.client)
	if err != nil {
		return err
	}
	recs, elapsed := m.phase(ctx, d, 0, half, m.e.tr)
	after, err := d.healthz(m.client)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	failedBase, _, err := m.verify(ctx, base, nil)
	if err != nil {
		return err
	}
	failed, st, err := m.verify(ctx, recs, m.e.tr)
	if err != nil {
		return err
	}
	o.attempted = len(base) + len(recs)
	o.failed = failedBase + failed

	overhead := map[string][]float64{}
	rejects := 0
	for i := range recs {
		r := &recs[i]
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejects++
		}
		if !r.ok() {
			continue
		}
		kind := "upload"
		if q := m.stream.ops[r.op].req; q >= 0 {
			kind = m.stream.reqs[q].engine
			if r.hit {
				kind = "hit"
			}
		}
		lib := st.lib[r.op]
		if kind == "hit" {
			lib = 0
		}
		overhead[kind] = append(overhead[kind], ms(r.end-r.start-lib))
	}
	put := func(name string, xs []float64) {
		if len(xs) > 0 {
			o.metrics[name] = metric{median(xs), unitOf(name)}
		}
	}
	for kind, xs := range overhead {
		put("serve.overhead_ms."+kind, xs)
	}
	put("graphalg.cut_ms", append(append([]float64(nil), st.engine["wavefront"]...), st.engine["dominator"]...))
	put("prbw.play_ms", st.engine["prbw"])
	put("memsim.run_ms", append(append([]float64(nil), st.engine["simulate"]...), st.engine["sweep"]...))
	toSecs := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / 1000
		}
		return out
	}
	put("wavefront.wmax_s", toSecs(append(append([]float64(nil), st.engine["wmax"]...), st.engine["analyze"]...)))
	put("pebble.play_s", toSecs(st.engine["play"]))
	put("pebble.moves", st.moves)
	put("cdag.decode_ms", st.decode)
	put("cdag.canon_ms", st.canon)
	put("cdag.validate_ms", st.valid)
	put("core.open_ms", st.open)
	put("store.append_ms", st.appendT)
	hitsDelta := after.Cache.Memo.Hits - before.Cache.Memo.Hits
	missDelta := after.Cache.Memo.Misses - before.Cache.Memo.Misses
	if hitsDelta+missDelta > 0 {
		o.metrics["serve.memo_hit_ratio"] = metric{float64(hitsDelta) / float64(hitsDelta+missDelta), "ratio"}
	}
	o.metrics["serve.evictions"] = metric{float64(after.Cache.Evictions - before.Cache.Evictions), "count"}
	o.metrics["serve.cache_mb"] = metric{float64(after.Cache.UsedBytes) / (1 << 20), "MiB"}
	o.metrics["serve.rejects"] = metric{float64(rejects), "count"}
	o.metrics["store.log_mb"] = metric{float64(after.Store.LogBytes) / (1 << 20), "MiB"}
	o.metrics["store.append_errors"] = metric{float64(after.Store.AppendErrors - before.Store.AppendErrors), "count"}
	tracedRate := mixRate(recs, elapsed)
	baseRate := mixRate(base, baseElapsed)
	o.metrics["trace.overhead.req_per_s"] = metric{tracedRate - baseRate, "1/s"}
	o.detail["setup_wall_s"] = metric{setup, "s"}
	o.detail["req_per_s.untraced"] = metric{baseRate, "1/s"}
	o.detail["req_per_s.traced"] = metric{tracedRate, "1/s"}
	return nil
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

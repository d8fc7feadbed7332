package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdagio/internal/cdag"
	"cdagio/internal/core"
	"cdagio/internal/fault"
	"cdagio/internal/gen"
)

// testServer mounts a daemon on an httptest server.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// do issues one request and returns the status, headers and decoded body.
func do(t *testing.T, method, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	status, hdr, raw := doRaw(t, method, url, body)
	var payload map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &payload); err != nil {
			t.Fatalf("%s %s: undecodable body %q: %v", method, url, raw, err)
		}
	}
	return status, hdr, payload
}

func doRaw(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, raw
}

// upload ingests a generator spec and returns the graph ID.
func upload(t *testing.T, base, spec string) string {
	t.Helper()
	status, _, payload := do(t, "POST", base+"/v1/graphs", spec)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("upload %s: status %d, body %v", spec, status, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("upload %s: bad id %q", spec, id)
	}
	return id
}

func errClass(t *testing.T, payload map[string]any) string {
	t.Helper()
	e, _ := payload["error"].(map[string]any)
	if e == nil {
		t.Fatalf("no error object in %v", payload)
	}
	class, _ := e["class"].(string)
	return class
}

func TestUploadAndAllEngines(t *testing.T) {
	_, hs := testServer(t, Config{})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":32}}`)

	// Re-upload dedupes onto the same content hash.
	status, _, payload := do(t, "POST", hs.URL+"/v1/graphs", `{"gen":{"kind":"Chain","n":32,"k":0}}`)
	if status != http.StatusOK || payload["id"] != id {
		t.Fatalf("re-upload: status %d id %v, want 200 %s", status, payload["id"], id)
	}

	// Metadata.
	status, _, payload = do(t, "GET", hs.URL+"/v1/graphs/"+id, "")
	if status != http.StatusOK || payload["vertices"].(float64) != 32 {
		t.Fatalf("metadata: status %d body %v", status, payload)
	}

	// Every engine answers on the cached Workspace.
	calls := []struct {
		engine, body string
		check        func(map[string]any) bool
	}{
		{"wmax", `{}`, func(m map[string]any) bool { return m["wmax"].(float64) == 1 }},
		{"wavefront", `{"vertex":5}`, func(m map[string]any) bool { return m["wavefront"].(float64) >= 1 }},
		{"dominator", `{"targets":[31]}`, func(m map[string]any) bool { return m["size"].(float64) >= 1 }},
		{"play", `{"s":2}`, func(m map[string]any) bool { return m["io"].(float64) >= 2 }},
		{"analyze", `{"s":2}`, func(m map[string]any) bool { return m["measured_io"].(float64) >= 2 }},
		{"simulate", `{"nodes":1,"fast_words":4}`, func(m map[string]any) bool { return m["loads"] != nil }},
		{"sweep", `{"jobs":[{"nodes":1,"fast_words":4},{"nodes":1,"fast_words":8}]}`,
			func(m map[string]any) bool { return len(m["results"].([]any)) == 2 }},
		{"prbw", `{"p":1,"s1":4,"sl":1024}`, func(m map[string]any) bool { return m["computes"] != nil }},
	}
	for _, c := range calls {
		status, _, payload := do(t, "POST", hs.URL+"/v1/graphs/"+id+"/"+c.engine, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %v", c.engine, status, payload)
		}
		if !c.check(payload) {
			t.Fatalf("%s: unexpected payload %v", c.engine, payload)
		}
	}

	// The exact search needs a small graph.
	small := upload(t, hs.URL, `{"gen":{"kind":"chain","n":8}}`)
	status, _, payload = do(t, "POST", hs.URL+"/v1/graphs/"+small+"/optimal", `{"s":2}`)
	if status != http.StatusOK || payload["optimal_io"].(float64) < 2 {
		t.Fatalf("optimal: status %d body %v", status, payload)
	}
}

// TestHugeFastMemory sends play and analyze an S near the int64 limit.  No
// engine may size anything by S, and every lower bound must stay at or below
// the measured I/O: S exceeds every wavefront, so Lemma 2 gives 0.  Neither
// play evicts, so the body equals the one for S = |V|.
func TestHugeFastMemory(t *testing.T) {
	_, hs := testServer(t, Config{})
	for _, spec := range []string{`{"gen":{"kind":"chain","n":5}}`, `{"gen":{"kind":"fft","n":16}}`} {
		id := upload(t, hs.URL, spec)
		_, _, meta := do(t, "GET", hs.URL+"/v1/graphs/"+id, "")
		base := hs.URL + "/v1/graphs/" + id
		const huge = `{"s":9000000000000000000}`

		status, _, hugeBody := doRaw(t, "POST", base+"/play", huge)
		if status != http.StatusOK {
			t.Fatalf("%s play %s: status %d body %s", spec, huge, status, hugeBody)
		}
		roomy := fmt.Sprintf(`{"s":%d}`, int(meta["vertices"].(float64)))
		status, _, roomyBody := doRaw(t, "POST", base+"/play", roomy)
		if status != http.StatusOK || !bytes.Equal(hugeBody, roomyBody) {
			t.Fatalf("%s play: %s gave %s, %s gave status %d body %s", spec, huge, hugeBody, roomy, status, roomyBody)
		}

		status, _, a := do(t, "POST", base+"/analyze", huge)
		if status != http.StatusOK {
			t.Fatalf("%s analyze %s: status %d body %v", spec, huge, status, a)
		}
		measured := a["measured_io"].(float64)
		for _, lb := range a["lower_bounds"].([]any) {
			b := lb.(map[string]any)
			if v := b["value"].(float64); v > measured {
				t.Errorf("%s analyze: lower bound %v (%v) above measured I/O %v", spec, v, b["technique"], measured)
			}
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	_, hs := testServer(t, Config{
		JSONLimits: cdag.JSONLimits{MaxVertices: 64, MaxEdges: 256, MaxLabelBytes: 1 << 12},
	})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":16}}`)

	cases := []struct {
		name, method, path, body string
		status                   int
		class                    string
	}{
		{"malformed body", "POST", "/v1/graphs", `{"gen":`, 400, "invalid_input"},
		{"unknown field", "POST", "/v1/graphs", `{"bogus":1}`, 400, "invalid_input"},
		{"both graph and gen", "POST", "/v1/graphs", `{"graph":{"vertices":1,"edges":[],"inputs":[0],"outputs":[0]},"gen":{"kind":"chain","n":2}}`, 400, "invalid_input"},
		{"unknown generator", "POST", "/v1/graphs", `{"gen":{"kind":"mystery","n":4}}`, 400, "invalid_input"},
		{"generator panic", "POST", "/v1/graphs", `{"gen":{"kind":"chain","n":0}}`, 400, "invalid_input"},
		{"oversized upload", "POST", "/v1/graphs", `{"graph":{"vertices":100000,"edges":[],"inputs":[],"outputs":[]}}`, 413, "resource_limit"},
		{"oversized gen spec", "POST", "/v1/graphs", `{"gen":{"kind":"chain","n":2000000000}}`, 413, "resource_limit"},
		{"oversized gen matmul", "POST", "/v1/graphs", `{"gen":{"kind":"matmul","n":100000}}`, 413, "resource_limit"},
		{"cyclic graph", "POST", "/v1/graphs", `{"graph":{"vertices":2,"edges":[[0,1],[1,0]],"inputs":[],"outputs":[1]}}`, 400, "invalid_input"},
		{"edge out of range", "POST", "/v1/graphs", `{"graph":{"vertices":2,"edges":[[0,7]],"inputs":[0],"outputs":[1]}}`, 400, "invalid_input"},
		{"unknown graph", "POST", "/v1/graphs/sha256:beef/wmax", `{}`, 404, "not_found"},
		{"unknown engine", "POST", "/v1/graphs/" + id + "/teleport", `{}`, 404, "not_found"},
		{"bad engine params", "POST", "/v1/graphs/" + id + "/wavefront", `{"vertex":99}`, 400, "invalid_input"},
		{"bad variant", "POST", "/v1/graphs/" + id + "/play", `{"s":2,"variant":"green"}`, 400, "invalid_input"},
		{"s too small", "POST", "/v1/graphs/" + id + "/optimal", `{"s":0}`, 400, "invalid_input"},
		{"exact search too large", "POST", "/v1/graphs/" + id + "/optimal", `{"s":2,"max_states":10}`, 413, "resource_limit"},
		{"sweep without jobs", "POST", "/v1/graphs/" + id + "/sweep", `{"jobs":[]}`, 400, "invalid_input"},
		{"unknown engine field", "POST", "/v1/graphs/" + id + "/analyze", `{"s":4,"disable_two_phase":true}`, 400, "invalid_input"},
		{"wrong method", "DELETE", "/v1/graphs/" + id, "", 404, "not_found"},
	}
	for _, c := range cases {
		status, _, payload := do(t, c.method, hs.URL+c.path, c.body)
		if status != c.status {
			t.Errorf("%s: status %d, want %d (body %v)", c.name, status, c.status, payload)
			continue
		}
		if got := errClass(t, payload); got != c.class {
			t.Errorf("%s: class %q, want %q", c.name, got, c.class)
		}
	}
}

// TestWMaxWorkerPanicIsolation is the core acceptance test: a panic forced
// inside a w^max worker mid-request surfaces as a structured 500, and
// subsequent requests against the same cached Workspace return bit-identical
// results.
func TestWMaxWorkerPanicIsolation(t *testing.T) {
	_, hs := testServer(t, Config{})
	id := upload(t, hs.URL, `{"gen":{"kind":"tree","n":64}}`)
	wmaxURL := hs.URL + "/v1/graphs/" + id + "/wmax"

	// Baseline before any fault: this also primes the memo.
	status, _, baseline := doRaw(t, "POST", wmaxURL, `{"concurrency":4}`)
	if status != http.StatusOK {
		t.Fatalf("baseline wmax: status %d body %s", status, baseline)
	}

	// Crash a worker mid-scan.  The request body differs by whitespace so the
	// memo cannot mask the engine run.
	restore := FaultPoint(func(point string) {
		if point == fault.PointWMaxWorker {
			panic("injected worker crash")
		}
	})
	status, _, payload := do(t, "POST", wmaxURL, `{"concurrency": 4}`)
	restore()
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted wmax: status %d body %v, want 500", status, payload)
	}
	if got := errClass(t, payload); got != "internal" {
		t.Fatalf("faulted wmax: class %q, want internal", got)
	}
	detail := payload["error"].(map[string]any)["detail"].(string)
	if !strings.Contains(detail, "graphalg.wmax.worker") {
		t.Fatalf("faulted wmax: detail %q does not name the fault point", detail)
	}

	// /healthz reports the crash as the last error and stays 200.
	status, _, health := do(t, "GET", hs.URL+"/healthz", "")
	if status != http.StatusOK || !strings.Contains(health["last_error"].(string), "graphalg.wmax.worker") {
		t.Fatalf("healthz after crash: status %d body %v", status, health)
	}

	// The same Workspace keeps serving, bit-identically: a fresh computation
	// (another uncached body spelling) and the memoized baseline must agree
	// byte for byte.
	status, _, fresh := doRaw(t, "POST", wmaxURL, `{ "concurrency":4}`)
	if status != http.StatusOK {
		t.Fatalf("post-crash wmax: status %d body %s", status, fresh)
	}
	if !bytes.Equal(fresh, baseline) {
		t.Fatalf("post-crash wmax differs from baseline: %s vs %s", fresh, baseline)
	}
	status, hdr, memoed := doRaw(t, "POST", wmaxURL, `{"concurrency":4}`)
	if status != http.StatusOK || hdr.Get("X-Cdagd-Memo") != "hit" {
		t.Fatalf("memoized wmax: status %d memo %q", status, hdr.Get("X-Cdagd-Memo"))
	}
	if !bytes.Equal(memoed, baseline) {
		t.Fatalf("memoized wmax differs from baseline")
	}
}

// TestAdmissionControl saturates the light class with requests parked on a
// fault hook and verifies: queue overflow is 429 + Retry-After, heavy
// engines are shed with 503 + Retry-After, /healthz stays live and reports
// the congestion, and the parked requests complete once unblocked.
func TestAdmissionControl(t *testing.T) {
	_, hs := testServer(t, Config{LightInFlight: 1, LightQueue: 1, ShedThreshold: 0.9})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":32}}`)
	sweepURL := hs.URL + "/v1/graphs/" + id + "/sweep"

	entered := make(chan struct{}, 8)
	block := make(chan struct{})
	restore := FaultPoint(func(point string) {
		if point == fault.PointMemsimSweepWorker {
			entered <- struct{}{}
			<-block
		}
	})
	defer restore()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func(body string) {
		req, _ := http.NewRequest("POST", sweepURL+"?deadline_ms=30000", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			results <- result{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		results <- result{resp.StatusCode, raw}
	}
	// First request takes the only in-flight slot and parks on the hook.
	go post(`{"jobs":[{"nodes":1,"fast_words":4}]}`)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first sweep never reached the worker")
	}
	// Second request fills the queue.
	go post(`{"jobs":[{"nodes":1,"fast_words":8}]}`)
	waitFor(t, func() bool {
		_, _, h := do(t, "GET", hs.URL+"/healthz", "")
		light := h["light"].(map[string]any)
		return light["queued"].(float64) == 1
	}, "second sweep never queued")

	// Third light request overflows the queue: 429 + Retry-After.
	status, hdr, payload := do(t, "POST", sweepURL, `{"jobs":[{"nodes":1,"fast_words":16}]}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d body %v, want 429", status, payload)
	}
	if errClass(t, payload) != "overloaded" || hdr.Get("Retry-After") == "" {
		t.Fatalf("overflow: class %q Retry-After %q", errClass(t, payload), hdr.Get("Retry-After"))
	}

	// Heavy engines are shed while the light class is saturated: 503.
	status, hdr, payload = do(t, "POST", hs.URL+"/v1/graphs/"+id+"/wmax", `{}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("shed: status %d body %v, want 503", status, payload)
	}
	if errClass(t, payload) != "overloaded" || hdr.Get("Retry-After") == "" {
		t.Fatalf("shed: class %q Retry-After %q", errClass(t, payload), hdr.Get("Retry-After"))
	}

	// Liveness endpoint never queues behind engine traffic.
	status, _, health := do(t, "GET", hs.URL+"/healthz", "")
	if status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz under load: status %d body %v", status, health)
	}

	// Unblock: both parked sweeps must complete successfully.
	close(block)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.status != http.StatusOK {
				t.Fatalf("parked sweep %d: status %d body %s", i, r.status, r.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked sweeps never completed")
		}
	}
}

// TestNoQueueRejectsImmediately: a negative queue depth disables queueing,
// so the moment the in-flight slots are taken, further requests in the class
// get an immediate 429 instead of parking until their deadlines.
func TestNoQueueRejectsImmediately(t *testing.T) {
	_, hs := testServer(t, Config{LightInFlight: 1, LightQueue: -1})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":32}}`)
	sweepURL := hs.URL + "/v1/graphs/" + id + "/sweep"

	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	restore := FaultPoint(func(point string) {
		if point == fault.PointMemsimSweepWorker {
			entered <- struct{}{}
			<-block
		}
	})
	defer restore()

	done := make(chan result2, 1)
	go func() {
		status, _, raw := rawPost(sweepURL+"?deadline_ms=30000", `{"jobs":[{"nodes":1,"fast_words":4}]}`)
		done <- result2{status, raw}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first sweep never reached the worker")
	}

	status, hdr, payload := do(t, "POST", sweepURL, `{"jobs":[{"nodes":1,"fast_words":8}]}`)
	if status != http.StatusTooManyRequests || errClass(t, payload) != "overloaded" || hdr.Get("Retry-After") == "" {
		t.Fatalf("no-queue overflow: status %d class %q Retry-After %q, want immediate 429",
			status, errClass(t, payload), hdr.Get("Retry-After"))
	}

	close(block)
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("parked sweep: status %d body %s", r.status, r.raw)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked sweep never completed")
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestDeadlineExceededIs504(t *testing.T) {
	_, hs := testServer(t, Config{})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":32}}`)

	// The hook stalls the sweep worker well past the request deadline; the
	// engine notices the expired context right after and returns ctx.Err().
	restore := FaultPoint(func(point string) {
		if point == fault.PointMemsimSweepWorker {
			time.Sleep(300 * time.Millisecond)
		}
	})
	defer restore()
	status, _, payload := do(t, "POST",
		hs.URL+"/v1/graphs/"+id+"/sweep?deadline_ms=50", `{"jobs":[{"nodes":1,"fast_words":4}]}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d body %v, want 504", status, payload)
	}
	if got := errClass(t, payload); got != "deadline" {
		t.Fatalf("deadline: class %q, want deadline", got)
	}
}

func TestCacheAdmissionAndEviction(t *testing.T) {
	// Budget sized from the real footprint estimate: it holds one chain-300
	// workspace with headroom but not two, and is far below a large stencil.
	fp := core.NewWorkspace(gen.Chain(300)).FootprintBytes(1)
	s, hs := testServer(t, Config{CacheBudget: fp + fp/2, SolverLimit: 1})

	// A graph whose estimated footprint exceeds the whole budget is rejected
	// with 413 before it can OOM the cache.
	status, _, payload := do(t, "POST", hs.URL+"/v1/graphs", `{"gen":{"kind":"jacobi","dim":1,"n":256,"steps":64}}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized graph: status %d body %v, want 413", status, payload)
	}
	if got := errClass(t, payload); got != "resource_limit" {
		t.Fatalf("oversized graph: class %q, want resource_limit", got)
	}

	// Two graphs that individually fit but not together: the second upload
	// evicts the first (LRU, unpinned), whose ID then 404s.
	idA := upload(t, hs.URL, `{"gen":{"kind":"chain","n":300}}`)
	idB := upload(t, hs.URL, `{"gen":{"kind":"chain","n":301}}`)
	if idA == idB {
		t.Fatal("distinct graphs share an ID")
	}
	status, _, _ = do(t, "GET", hs.URL+"/v1/graphs/"+idB, "")
	if status != http.StatusOK {
		t.Fatalf("graph B evicted unexpectedly: %d", status)
	}
	status, _, payload = do(t, "GET", hs.URL+"/v1/graphs/"+idA, "")
	if status != http.StatusNotFound {
		t.Fatalf("graph A: status %d body %v, want 404 after eviction", status, payload)
	}
	if cs := s.cache.stats(); cs.graphs != 1 {
		t.Fatalf("cache holds %d graphs, want 1", cs.graphs)
	}
}

// TestGracefulDrain cancels the daemon's context while a request is in
// flight and verifies the drain: new requests are refused with 503, the
// in-flight request completes, and Serve returns nil within the deadline.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	id := upload(t, base, `{"gen":{"kind":"chain","n":32}}`)

	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	restore := FaultPoint(func(point string) {
		if point == fault.PointMemsimSweepWorker {
			entered <- struct{}{}
			<-block
		}
	})
	defer restore()

	inflight := make(chan result2, 1)
	go func() {
		status, _, raw := rawPost(base+"/v1/graphs/"+id+"/sweep?deadline_ms=30000", `{"jobs":[{"nodes":1,"fast_words":4}]}`)
		inflight <- result2{status, raw}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight sweep never reached the worker")
	}

	// Begin the drain mid-request.
	cancel()
	waitFor(t, func() bool { return s.draining.Load() }, "daemon never started draining")

	// New work is refused while draining: either the listener is already
	// closed (connection error) or a still-open connection gets the 503 shed.
	if status, _, raw := rawPost(base+"/v1/graphs/"+id+"/wavefront", `{"vertex":3}`); status != 0 && status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d body %s, want refusal or 503", status, raw)
	}

	// Let the in-flight request finish: it must succeed, and Serve must then
	// return nil well within the drain deadline.
	close(block)
	select {
	case r := <-inflight:
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request during drain: status %d body %s", r.status, r.raw)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

type result2 struct {
	status int
	raw    []byte
}

func rawPost(url, body string) (int, http.Header, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, []byte(err.Error())
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

// TestReadyzFlipsWhileDraining exercises the readiness and liveness surface
// of a draining daemon directly on the handler (the real drain closes the
// listener, so this is not reliably observable over fresh connections).
func TestReadyzFlipsWhileDraining(t *testing.T) {
	s, hs := testServer(t, Config{})
	if status, _, p := do(t, "GET", hs.URL+"/readyz", ""); status != http.StatusOK {
		t.Fatalf("readyz before drain: status %d body %v", status, p)
	}
	s.draining.Store(true)
	status, hdr, payload := do(t, "GET", hs.URL+"/readyz", "")
	if status != http.StatusServiceUnavailable || errClass(t, payload) != "overloaded" || hdr.Get("Retry-After") == "" {
		t.Fatalf("readyz while draining: status %d headers %v body %v", status, hdr, payload)
	}
	status, _, health := do(t, "GET", hs.URL+"/healthz", "")
	if status != http.StatusOK || health["status"] != "draining" {
		t.Fatalf("healthz while draining: status %d body %v", status, health)
	}
}

func TestUploadBodyTooLarge(t *testing.T) {
	_, hs := testServer(t, Config{MaxBodyBytes: 128})
	big := fmt.Sprintf(`{"gen":{"kind":"chain","n":8,"stencil":%q}}`, strings.Repeat("x", 4096))
	status, _, payload := do(t, "POST", hs.URL+"/v1/graphs", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d body %v, want 413", status, payload)
	}
	if got := errClass(t, payload); got != "resource_limit" {
		t.Fatalf("oversized body: class %q, want resource_limit", got)
	}
}

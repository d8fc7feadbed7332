package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"cdagio/internal/core"
	"cdagio/internal/gen"
)

// TestUnitCountsBoundedByGraph checks the request numbers that size state
// before any work.  prbw's processor count and the node count of simulate
// and of each sweep job are rejected above the graph's vertex count.  A
// round-robin prbw play, whose every register file comes to hold a
// |V|-entry position index, is rejected once that index outgrows the
// Workspace's footprint, so no play allocates more than twice it: at
// p = |V| on FFT(64) the index alone would take 4·p·|V| bytes, eleven times
// the footprint.
func TestUnitCountsBoundedByGraph(t *testing.T) {
	_, hs := testServer(t, Config{})
	id := upload(t, hs.URL, `{"gen":{"kind":"chain","n":4}}`)
	for _, c := range []struct{ engine, body string }{
		{"prbw", `{"p":%d,"s1":4,"sl":1024}`},
		{"prbw", `{"p":%d,"s1":4,"sl":1024,"assignment":"roundrobin"}`},
		{"simulate", `{"nodes":%d,"fast_words":4}`},
		{"sweep", `{"jobs":[{"nodes":1,"fast_words":4},{"nodes":%d,"fast_words":4}]}`},
	} {
		for units, want := range map[int]int{4: http.StatusOK, 5: http.StatusBadRequest} {
			body := fmt.Sprintf(c.body, units)
			status, _, payload := do(t, "POST", hs.URL+"/v1/graphs/"+id+"/"+c.engine, body)
			if status != want {
				t.Errorf("%s %s: status %d, want %d (body %v)", c.engine, body, status, want, payload)
			} else if status != http.StatusOK && errClass(t, payload) != "invalid_input" {
				t.Errorf("%s %s: class %q, want invalid_input", c.engine, body, errClass(t, payload))
			}
		}
	}

	ws := core.NewWorkspace(gen.FFT(64))
	n, own := ws.Graph().NumVertices(), ws.FootprintBytes(1)
	for _, c := range []struct {
		p  int
		ok bool
	}{{4, true}, {n, false}} {
		body := fmt.Sprintf(`{"p":%d,"s1":8,"sl":262144,"assignment":"roundrobin"}`, c.p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunEngine(context.Background(), ws, "prbw", []byte(body), EngineLimits{})
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Fatalf("FFT(64) %s: error %v, want success %v", body, err, c.ok)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(own) {
			t.Errorf("FFT(64) %s: allocated %d bytes, more than twice the %d-byte footprint", body, alloc, own)
		}
	}
}

// FuzzEngineRequest feeds arbitrary bodies to every engine on an 8-vertex
// graph: RunEngine must never panic, never fail with an internal error (a
// body the engine cannot serve is invalid input or over a limit), and answer
// one body twice with the same bytes, which the daemon's memo relies on.
func FuzzEngineRequest(f *testing.F) {
	names := slices.Sorted(maps.Keys(engines))
	for _, seed := range []struct{ engine, body string }{
		{"analyze", `{"s":3,"concurrency":2}`},
		{"dominator", `{"targets":[7,6]}`},
		{"optimal", `{"s":3,"variant":"hk"}`},
		{"play", `{"s":3,"order":[]}`},
		{"play", `{"s":3,"policy":"lru","order":[4,5,6,7]}`},
		{"prbw", `{"p":2,"s1":4,"sl":1024,"assignment":"roundrobin"}`},
		{"simulate", `{"nodes":2,"fast_words":4}`},
		{"sweep", `{"jobs":[{"nodes":1,"fast_words":4}],"workers":3}`},
		{"wavefront", `{"vertex":5}`},
		{"wmax", `{"candidates":-1,"concurrency":1}`},
		{"wmax", ` `},
	} {
		f.Add(uint8(slices.Index(names, seed.engine)), []byte(seed.body))
	}
	ws := core.NewWorkspace(gen.Jacobi(1, 4, 1, gen.StencilStar).Graph)
	run := func(engine string, body []byte) ([]byte, error) {
		payload, err := RunEngine(context.Background(), ws, engine, body, EngineLimits{MaxSweepJobs: 8})
		if err != nil {
			return nil, err
		}
		return json.Marshal(payload)
	}
	f.Fuzz(func(t *testing.T, e uint8, body []byte) {
		engine := names[int(e)%len(names)]
		got, err := run(engine, body)
		if err != nil && errors.Is(classify(err).Class, ErrInternal) {
			t.Fatalf("%s %q: internal error %v", engine, body, err)
		}
		again, errAgain := run(engine, body)
		if fmt.Sprint(err) != fmt.Sprint(errAgain) || !bytes.Equal(got, again) {
			t.Fatalf("%s %q: %s (%v), then %s (%v)", engine, body, got, err, again, errAgain)
		}
	})
}

package memsim

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"cdagio/internal/fault"
	"cdagio/internal/gen"
	"cdagio/internal/sched"
)

// TestSweepWorkerPanicIsIsolated forces a panic inside one sweep worker and
// requires the sweep to fail with a *fault.PanicError — not crash — and a
// clean re-run to match the serial baseline exactly.
func TestSweepWorkerPanicIsIsolated(t *testing.T) {
	g := gen.Jacobi(2, 10, 4, gen.StencilBox).Graph
	topo := sched.Topological(g)
	jobs := []Job{
		{Cfg: Config{Nodes: 1, FastWords: 16, Policy: Belady}, Order: topo},
		{Cfg: Config{Nodes: 1, FastWords: 32, Policy: Belady}, Order: topo},
		{Cfg: Config{Nodes: 1, FastWords: 16, Policy: LRU}, Order: topo},
		{Cfg: Config{Nodes: 1, FastWords: 64, Policy: LRU}, Order: topo},
	}
	want, err := SweepCtx(context.Background(), g, jobs, 2)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	var fired atomic.Int64
	restore := fault.SetHook(func(point string) {
		if point == fault.PointMemsimSweepWorker && fired.Add(1) == 2 {
			panic("injected sweep worker crash")
		}
	})
	_, err = SweepCtx(context.Background(), g, jobs, 2)
	restore()
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v, want *fault.PanicError", err)
	}

	got, err := SweepCtx(context.Background(), g, jobs, 2)
	if err != nil {
		t.Fatalf("post-crash sweep: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-crash sweep results differ from baseline")
	}
}

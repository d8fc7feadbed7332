package graphalg

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"cdagio/internal/fault"
	"cdagio/internal/gen"
)

// TestWMaxWorkerPanicIsIsolated forces a panic inside one w^max worker and
// requires that (a) the search returns a *fault.PanicError instead of
// crashing the process, and (b) a subsequent search on the same graph and
// pool is clean and bit-identical to an uninjected baseline — the poisoned
// solver must not have leaked back into the pool.
func TestWMaxWorkerPanicIsIsolated(t *testing.T) {
	g := gen.Jacobi(2, 10, 4, gen.StencilBox).Graph
	pool := NewSolverPool(g)

	wantW, wantAt := wmax(t, g, nil, WMaxOptions{Concurrency: 4})

	var fired atomic.Int64
	restore := fault.SetHook(func(point string) {
		if point == fault.PointWMaxWorker && fired.Add(1) == 3 {
			panic("injected wmax worker crash")
		}
	})
	_, _, err := MaxMinWavefrontLowerBoundCtx(context.Background(), g, nil,
		WMaxOptions{Concurrency: 4, Pool: pool})
	restore()
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v, want *fault.PanicError", err)
	}
	if pe.Label != fault.PointWMaxWorker {
		t.Fatalf("PanicError label %q, want %q", pe.Label, fault.PointWMaxWorker)
	}

	for i := 0; i < 2; i++ {
		w, at, err := MaxMinWavefrontLowerBoundCtx(context.Background(), g, nil,
			WMaxOptions{Concurrency: 4, Pool: pool})
		if err != nil {
			t.Fatalf("post-crash search %d: %v", i, err)
		}
		if w != wantW || at != wantAt {
			t.Fatalf("post-crash search %d = (%d, %d), want (%d, %d)", i, w, at, wantW, wantAt)
		}
	}
}

// TestSolverPoolLimit checks the in-flight cap: Get blocks at the limit until
// a Put or Discard frees a slot, and InUse tracks occupancy.
func TestSolverPoolLimit(t *testing.T) {
	g := gen.Chain(8)
	pool := NewSolverPool(g)
	pool.SetLimit(2)
	if pool.Limit() != 2 {
		t.Fatalf("Limit = %d, want 2", pool.Limit())
	}
	a, b := pool.Get(), pool.Get()
	if pool.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", pool.InUse())
	}
	acquired := make(chan *CutSolver)
	go func() { acquired <- pool.Get() }()
	select {
	case <-acquired:
		t.Fatalf("third Get did not block at limit 2")
	default:
	}
	pool.Put(a)
	c := <-acquired
	if pool.InUse() != 2 {
		t.Fatalf("InUse after handoff = %d, want 2", pool.InUse())
	}
	pool.Discard(b)
	pool.Put(c)
	if pool.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", pool.InUse())
	}
	// The capped pool still serves searches correctly even when the worker
	// count exceeds the cap (excess workers wait their turn).
	w1, at1 := wmax(t, g, nil, WMaxOptions{Concurrency: 4, Pool: pool})
	w2, at2 := wmax(t, g, nil, WMaxOptions{Concurrency: 1})
	if w1 != w2 || at1 != at2 {
		t.Fatalf("capped pool search = (%d,%d), want (%d,%d)", w1, at1, w2, at2)
	}
	if pool.InUse() != 0 {
		t.Fatalf("InUse after search = %d, want 0 (leaked slots)", pool.InUse())
	}
}

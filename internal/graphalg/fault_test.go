package graphalg

import (
	"context"
	"errors"
	"runtime"
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

// TestCancelStopsEveryPass cancels a one-worker scan from the fault hook
// that runs before each candidate, once inside each of the three passes, and
// requires the scan to return context.Canceled without starting another
// candidate: every pass checks the context per candidate, the bound pass's
// blocks of claimed candidates included.
func TestCancelStopsEveryPass(t *testing.T) {
	g := gen.Jacobi(2, 10, 4, gen.StencilBox).Graph
	nc := g.NumVertices()
	var calls atomic.Int64
	scan := func(cancelAt int64) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls.Store(0)
		restore := fault.SetHook(func(point string) {
			if point == fault.PointWMaxWorker && calls.Add(1) == cancelAt {
				cancel()
			}
		})
		defer restore()
		_, _, err := MaxMinWavefrontLowerBoundCtx(ctx, g, nil, WMaxOptions{Concurrency: 1})
		return err
	}
	if err := scan(-1); err != nil {
		t.Fatal(err)
	}
	// The seed pass visits the seeds, the bound pass every candidate.
	before := int64(seedSample + nc)
	if solves := calls.Load() - before; solves < 2 {
		t.Fatalf("weak coverage: the solve pass visits %d candidates", solves)
	}
	for _, at := range []int64{seedSample / 2, seedSample + int64(nc)/2, before + 1} {
		if err := scan(at); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at candidate %d: scan returned %v, want context.Canceled", at, err)
		}
		if got := calls.Load(); got != at {
			t.Errorf("cancelled at candidate %d: the scan started %d", at, got)
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

// TestWorkersCappedByPoolLimit asks for 1<<20 workers from a pool capped at 2
// solvers and records, from the hook that runs before each candidate, how far
// the goroutine count rises during the scan.  Workers past the cap could only
// wait in Get, so the scan may start at most 2 at a time; starting one per
// candidate would hold hundreds of idle stacks on this graph.
func TestWorkersCappedByPoolLimit(t *testing.T) {
	const limit = 2
	g := gen.Jacobi(2, 8, 3, gen.StencilBox).Graph
	wantW, wantAt := wmax(t, g, nil, WMaxOptions{Concurrency: 1})
	pool := NewSolverPool(g)
	pool.SetLimit(limit)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	restore := fault.SetHook(func(point string) {
		if point != fault.PointWMaxWorker {
			return
		}
		for n := int64(runtime.NumGoroutine()); ; {
			cur := peak.Load()
			if n <= cur || peak.CompareAndSwap(cur, n) {
				break
			}
		}
	})
	w, at, err := MaxMinWavefrontLowerBoundCtx(context.Background(), g, nil,
		WMaxOptions{Concurrency: 1 << 20, Pool: pool})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if w != wantW || at != wantAt {
		t.Fatalf("scan = (%d, %d), want (%d, %d)", w, at, wantW, wantAt)
	}
	if rise := peak.Load() - int64(base); rise > limit {
		t.Fatalf("the scan over %d candidates raised the goroutine count by %d, want at most %d",
			g.NumVertices(), rise, limit)
	}
}

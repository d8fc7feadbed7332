package cdagio

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cdagio/internal/graphalg"
	"cdagio/internal/memsim"
)

// scaleJacobi builds the 110k-vertex / 888k-edge Jacobi CDAG of the w^max
// scale benchmark (100×100 grid, T=10, box stencil).
func scaleJacobi() *Graph {
	g := Jacobi(2, 100, 10, StencilBox).Graph
	g.Materialize()
	return g
}

// cancelPromptly runs work under a cancellable context, cancels it after
// delay, and fails the test unless work returns context.Canceled within
// budget of the cancellation.  The budget is far below the engines' full
// runtime on the scale instance, so a pass proves the cancel cut the run
// short rather than merely racing its natural end.
func cancelPromptly(t *testing.T, name string, delay, budget time.Duration, work func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- work(ctx) }()
	time.Sleep(delay)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s returned %v, want context.Canceled", name, err)
		}
		if el := time.Since(cancelled); el > budget {
			t.Fatalf("%s took %v to honor cancellation (budget %v)", name, el, budget)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never returned after cancellation", name)
	}
}

// TestWorkspaceWMaxCancelPrompt cancels a single-core all-candidates w^max
// scan of the 110k-vertex Jacobi CDAG mid-flight.  The full scan takes
// seconds; the scan must surface context.Canceled within a small fraction of
// that (the engine re-checks ctx at per-candidate pruning-tier boundaries).
func TestWorkspaceWMaxCancelPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("110k-vertex scale instance")
	}
	ws := Open(scaleJacobi())
	cancelPromptly(t, "ws.WMax", 100*time.Millisecond, 2*time.Second, func(ctx context.Context) error {
		_, _, err := ws.WMax(ctx, nil, WMaxOptions{Concurrency: 1})
		return err
	})
}

// TestWorkspaceSimulateSweepCancelPrompt cancels a long memory-simulation
// sweep (48 jobs against the 110k-vertex Jacobi CDAG) mid-flight: the sweep
// must stop claiming jobs and surface context.Canceled within the budget,
// with partial results discarded.
func TestWorkspaceSimulateSweepCancelPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("110k-vertex scale instance")
	}
	g := scaleJacobi()
	ws := Open(g)
	order := TopologicalSchedule(g)
	var jobs []MemorySweepJob
	for i := 0; i < 48; i++ {
		jobs = append(jobs, MemorySweepJob{
			Cfg:   MemSimConfig{Nodes: 1, FastWords: 256 + 8*i, Policy: MemSimBelady},
			Order: order,
		})
	}
	cancelPromptly(t, "ws.SimulateSweep", 150*time.Millisecond, 5*time.Second, func(ctx context.Context) error {
		stats, err := ws.SimulateSweep(ctx, jobs, 2)
		if stats != nil {
			return errors.New("cancelled sweep returned partial results")
		}
		return err
	})
}

// TestWorkspaceFacadeEquivalence pins the facade-level Workspace methods
// against the package engines under context.Background(): bounds,
// witnesses and stats must be bit-identical at every worker count, and a
// reused handle must analyze exactly like a fresh one.
func TestWorkspaceFacadeEquivalence(t *testing.T) {
	g := Jacobi(2, 16, 4, StencilBox).Graph
	ws := Open(g)
	ctx := context.Background()

	wantW, wantAt, err := graphalg.MaxMinWavefrontLowerBoundCtx(ctx, g, nil, WMaxOptions{Concurrency: 1})
	if err != nil {
		t.Fatalf("MaxMinWavefrontLowerBoundCtx: %v", err)
	}
	for _, conc := range []int{0, 1, 2, 4, 9} {
		w, at, err := ws.WMax(ctx, nil, WMaxOptions{Concurrency: conc})
		if err != nil || w != wantW || at != wantAt {
			t.Fatalf("ws.WMax conc=%d: (%d, %d, %v), fresh engine (%d, %d)", conc, w, at, err, wantW, wantAt)
		}
	}

	order := TopologicalSchedule(g)
	var jobs []MemorySweepJob
	var want []*memsim.Stats
	for _, s := range []int{64, 96, 128, 192} {
		cfg := MemSimConfig{Nodes: 2, FastWords: s, Policy: MemSimBelady}
		st, err := memsim.RunCtx(ctx, g, cfg, order, nil)
		if err != nil {
			t.Fatalf("memsim.RunCtx S=%d: %v", s, err)
		}
		want = append(want, st)
		jobs = append(jobs, MemorySweepJob{Cfg: cfg, Order: order})
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		got, err := ws.SimulateSweep(ctx, jobs, workers)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ws.SimulateSweep workers=%d diverges from serial runs: %v", workers, err)
		}
	}

	wantA, err := Open(g).Analyze(ctx, AnalyzeOptions{FastMemory: 32})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for round := 0; round < 2; round++ {
		got, err := ws.Analyze(ctx, AnalyzeOptions{FastMemory: 32})
		if err != nil || !reflect.DeepEqual(got, wantA) {
			t.Fatalf("ws.Analyze round %d diverges from a fresh handle: %v", round, err)
		}
	}
}

// TestWorkspacePreCancelledFacade checks the facade methods reject an
// already-cancelled context without touching their engines.
func TestWorkspacePreCancelledFacade(t *testing.T) {
	g := FFT(8)
	ws := Open(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ws.WMax(ctx, nil, WMaxOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("WMax: %v, want context.Canceled", err)
	}
	if _, err := ws.Analyze(ctx, AnalyzeOptions{FastMemory: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze: %v, want context.Canceled", err)
	}
	if _, err := ws.SimulateSweep(ctx, []MemorySweepJob{{Cfg: MemSimConfig{Nodes: 1, FastWords: 8, Policy: MemSimBelady}, Order: TopologicalSchedule(g)}}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateSweep: %v, want context.Canceled", err)
	}
}

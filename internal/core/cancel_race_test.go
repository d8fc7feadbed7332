package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/memsim"
	"cdagio/internal/wavefront"
)

// TestCancellationRaceLeavesNoGoroutinesAndNoPoison hammers one shared
// Workspace with concurrent WMax scans and SimulateSweep runs whose contexts
// are cancelled at random points, then verifies (a) every call returns — a
// cancelled engine never wedges a caller, (b) the worker goroutines drain
// back to the baseline count — cancellation leaks nothing, and (c) the
// Workspace still produces bit-identical results afterwards — a cancelled
// run never poisons the pooled solvers or memoized schedules.  Run it under
// -race: the interesting failures here are ordering bugs, not logic bugs.
func TestCancellationRaceLeavesNoGoroutinesAndNoPoison(t *testing.T) {
	g := gen.Jacobi(1, 64, 24, gen.StencilStar).Graph
	ws := NewWorkspace(g)
	cands := wavefront.TopCandidates(g, 24)

	// Uncancelled baselines, taken before the storm.
	baseW, baseAt, err := ws.WMax(context.Background(), cands, graphalg.WMaxOptions{Concurrency: 4})
	if err != nil {
		t.Fatalf("baseline wmax: %v", err)
	}
	jobs := []memsim.Job{
		{Cfg: memsim.Config{Nodes: 1, FastWords: 8, Policy: memsim.Belady}},
		{Cfg: memsim.Config{Nodes: 2, FastWords: 16, Policy: memsim.LRU}},
	}
	baseStats, err := ws.SimulateSweep(context.Background(), jobs, 2)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	before := runtime.NumGoroutine()

	const callers = 8
	const rounds = 6
	done := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Cancel at a random point: sometimes before the call,
				// sometimes mid-flight, sometimes not at all.
				delay := time.Duration(rng.Intn(2000)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				var err error
				if rng.Intn(2) == 0 {
					_, _, err = ws.WMax(ctx, cands, graphalg.WMaxOptions{Concurrency: 4})
				} else {
					_, err = ws.SimulateSweep(ctx, jobs, 2)
				}
				timer.Stop()
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(c) * 7919)
	}
	for c := 0; c < callers; c++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("caller returned unexpected error: %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("a caller never returned after cancellation")
		}
	}

	// Worker goroutines must drain back to (about) the baseline.  The runtime
	// keeps a few service goroutines around, so allow a small margin rather
	// than an exact match.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the storm, %d after drain", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}

	// The Workspace must be unpoisoned: fresh uncancelled runs reproduce the
	// baselines bit for bit.
	w, at, err := ws.WMax(context.Background(), cands, graphalg.WMaxOptions{Concurrency: 4})
	if err != nil {
		t.Fatalf("post-storm wmax: %v", err)
	}
	if w != baseW || at != baseAt {
		t.Fatalf("post-storm wmax = (%d, %d), baseline (%d, %d)", w, at, baseW, baseAt)
	}
	stats, err := ws.SimulateSweep(context.Background(), jobs, 2)
	if err != nil {
		t.Fatalf("post-storm sweep: %v", err)
	}
	if !reflect.DeepEqual(stats, baseStats) {
		t.Fatal("post-storm sweep stats differ from baseline")
	}
}

// Quickstart: build a CDAG, open a Workspace on it, and compare the measured
// data movement of pebble-game schedules against the library's lower bounds.
//
// The example walks through the 1-D heat-equation workload of Section 5.1:
// it solves the discretized equation numerically, builds the CDAG of the
// corresponding Jacobi-style sweep, then analyzes that CDAG's data-movement
// complexity through a single cdagio.Workspace — the per-graph handle that
// owns all derived analysis state (compiled adjacency, cached min-cut
// networks, memoized schedules) and threads a context.Context through every
// engine, so repeated analyses are cheap and long ones are cancellable.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"cdagio"
	"cdagio/internal/linalg"
	"cdagio/internal/solvers"
)

func main() {
	// --- 1. A real computation: the 1-D heat equation (Section 5.1). --------
	const n = 64
	u0 := linalg.NewVector(n)
	for i := range u0 {
		u0[i] = math.Sin(math.Pi * float64(i+1) / float64(n+1))
	}
	u, stats, err := solvers.HeatEquation1D(u0, 0.4, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat equation: %d steps, %d FLOPs, peak temperature %.4f -> %.4f\n",
		stats.Iterations, stats.Flops, u0.NormInf(), u.NormInf())

	// --- 2. The CDAG of the corresponding stencil sweep, and its Workspace. --
	// Open once, analyze many times: the handle owns the compiled adjacency,
	// the cached cut networks and the memoized schedules, so every call below
	// after the first reuses them.  A real service would keep one Workspace
	// per live CDAG and pass each request's context; here a deadline stands in
	// for that.
	jr := cdagio.Jacobi(1, n, 16, cdagio.StencilStar)
	g := jr.Graph
	fmt.Println("stencil CDAG:", g)
	ws := cdagio.Open(g)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// --- 3. Play the pebble game: how much data moves with S words of cache?
	// A nil order plays the workspace's memoized topological schedule.
	const fastMemory = 24
	res, err := ws.PlayCtx(ctx, cdagio.RBW, fastMemory, nil, cdagio.Belady, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pebble game with S=%d: %d loads + %d stores = %d I/O\n",
		fastMemory, res.Loads, res.Stores, res.IO())

	// --- 4. Lower bounds and the gap. ----------------------------------------
	analysis, err := ws.Analyze(ctx, cdagio.AnalyzeOptions{FastMemory: fastMemory})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(analysis.Report())

	// --- 5. A better schedule narrows the gap: skewed time tiles. ------------
	tiled, err := ws.PlayCtx(ctx, cdagio.RBW, fastMemory,
		cdagio.StencilSkewed(jr, 8), cdagio.Belady, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skewed-tile schedule: %d I/O (naive topological: %d, Theorem 10 bound: %.0f)\n",
		tiled.IO(), res.IO(),
		cdagio.JacobiLower(cdagio.JacobiParams{Dim: 1, N: n, Steps: 16, Processors: 1, Nodes: 1},
			fastMemory).Value)

	// --- 6. The same handle answers point queries cheaply. -------------------
	// The w^max search below reuses the solver networks the Analyze call
	// already built; a cancelled context would stop it mid-scan instead.
	w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("w^max = %d (witness vertex %d): Lemma 2 gives I/O >= %d\n",
		w, at, 2*(w-fastMemory))
}

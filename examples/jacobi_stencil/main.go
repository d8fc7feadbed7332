// Jacobi stencil analysis: reproduce the Section 5.4 study —
//
//  1. relax a Poisson problem with the real Jacobi smoother,
//  2. build the 9-point stencil CDAG and measure the data movement of a
//     naive schedule versus a skewed time-tiled schedule, showing that the
//     tiled cost tracks the Theorem 10 lower bound (the bound is tight),
//  3. partition the grid across nodes and measure the ghost-cell
//     (horizontal) traffic with the P-RBW game,
//  4. evaluate the Section 5.4.3 balance criterion per stencil dimension.
//
// Run with:
//
//	go run ./examples/jacobi_stencil
package main

import (
	"context"
	"fmt"
	"log"

	"cdagio"
	"cdagio/internal/linalg"
	"cdagio/internal/memsim"
	"cdagio/internal/prbw"
	"cdagio/internal/solvers"
)

func main() {
	// --- 1. A real Jacobi relaxation. ----------------------------------------
	grid := linalg.NewGrid(2, 32)
	f := linalg.NewVector(grid.Points()).Fill(1)
	u0 := linalg.NewVector(grid.Points())
	_, stats, err := solvers.JacobiPoisson(grid, f, u0, solvers.JacobiOptions{Steps: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Jacobi relaxation: %d sweeps over %d points, %d FLOPs\n",
		stats.Iterations, grid.Points(), stats.Flops)

	// --- 2. Data movement of the stencil CDAG: naive vs time-tiled. ----------
	const (
		n     = 24
		steps = 12
		s     = 96 // fast-memory words
	)
	jr := cdagio.Jacobi(2, n, steps, cdagio.StencilBox)
	ctx := context.Background()
	ws := cdagio.Open(jr.Graph)
	naive, err := ws.PlayCtx(ctx, cdagio.RBW, s, nil, cdagio.Belady, false)
	if err != nil {
		log.Fatal(err)
	}
	tiled, err := ws.PlayCtx(ctx, cdagio.RBW, s,
		cdagio.StencilSkewed(jr, 8), cdagio.Belady, false)
	if err != nil {
		log.Fatal(err)
	}
	lower := cdagio.JacobiLower(cdagio.JacobiParams{Dim: 2, N: n, Steps: steps, Processors: 1, Nodes: 1}, s)
	fmt.Printf("9-point Jacobi CDAG (%d vertices), S=%d words:\n", jr.Graph.NumVertices(), s)
	fmt.Printf("  naive sweep order:   %6d I/O\n", naive.IO())
	fmt.Printf("  skewed time tiles:   %6d I/O\n", tiled.IO())
	fmt.Printf("  Theorem 10 bound:    %6.0f I/O (tight up to a constant)\n", lower.Value)

	// --- 3. Distributed execution: ghost cells are the horizontal traffic. ---
	owner := cdagio.BlockPartitionGrid(jr, 4)
	simStats, err := ws.Simulate(ctx,
		memsim.Config{Nodes: 4, FastWords: s, Policy: memsim.Belady},
		cdagio.TopologicalSchedule(jr.Graph), owner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block partition over 4 nodes: vertical %d words, horizontal (ghost) %d words\n",
		simStats.VerticalTotal(), simStats.HorizontalTotal())

	topo := prbw.Distributed(2, 1, 16, s, 1<<20)
	asg := prbw.OwnerCompute(jr.Graph, cdagio.BlockPartitionGrid(jr, 2))
	pstats, err := ws.PlayParallel(ctx, topo, asg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P-RBW game on 2 nodes: %d remote gets, %d cache<->memory words\n",
		pstats.HorizontalTraffic(), pstats.VerticalTraffic(2))

	// --- 4. The Section 5.4.3 balance criterion. ------------------------------
	ev, err := cdagio.EvaluateJacobi(cdagio.IBMBGQ(), 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ev.Report())
}

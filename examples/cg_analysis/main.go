// CG analysis: reproduce the paper's Section 5.2 study of the Conjugate
// Gradient method end to end —
//
//  1. solve a Poisson problem with the real CG solver (Figure 3),
//  2. build the CG iteration CDAG and verify the wavefront structure that
//     Theorem 8's lower bound rests on,
//  3. evaluate the machine-balance conditions (Equations 9 and 10) against
//     the Table-1 machines, reproducing the headline value
//     LB_vert·N_nodes/|V| = 0.3.
//
// Run with:
//
//	go run ./examples/cg_analysis
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"cdagio"
	"cdagio/internal/linalg"
	"cdagio/internal/solvers"
)

func main() {
	// --- 1. Solve a small Poisson problem with CG. ---------------------------
	grid := linalg.NewGrid(2, 24)
	a := grid.Laplacian()
	f := linalg.NewVector(grid.Points())
	for i := range f {
		f[i] = math.Sin(float64(i + 1))
	}
	x, stats, err := solvers.CG(solvers.CSROperator{M: a}, f, solvers.CGOptions{Tolerance: 1e-8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG solved a %d-unknown Poisson system in %d iterations (residual %.2e, %d FLOPs, |x|_inf %.4f)\n",
		grid.Points(), stats.Iterations, stats.Residual, stats.Flops, x.NormInf())

	// --- 2. The CG CDAG and its wavefronts (Theorem 8). ----------------------
	const (
		dim   = 2
		n     = 12
		iters = 3
	)
	cg := cdagio.CG(dim, n, iters)
	points := 1
	for i := 0; i < dim; i++ {
		points *= n
	}
	fmt.Println("CG iteration CDAG:", cg.Graph)
	ws := cdagio.Open(cg.Graph)
	for t := 0; t < iters; t++ {
		w, err := ws.WavefrontAt(context.Background(), cg.AlphaVertex[t])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iteration %d: wavefront at alpha >= %d (theory: 2·n^d = %d)\n",
			t, w, 2*points)
	}

	// --- 3. The balance analysis of Section 5.2.3. ---------------------------
	bgq := cdagio.IBMBGQ()
	params := cdagio.CGParams{
		Dim: 3, N: 1000, Iterations: 100,
		Processors: bgq.Nodes * bgq.CoresPerNode,
		Nodes:      bgq.Nodes,
	}
	ev, err := cdagio.EvaluateCG(params, cdagio.Table1Machines())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ev.Report())
	fmt.Println("conclusion: CG is unavoidably bound by main-memory bandwidth on every")
	fmt.Println("Table-1 machine, while the interconnect is never the bottleneck.")
}

// Matrix-multiplication and composite-CDAG study: the Section 2/3 material —
//
//  1. the classical matmul I/O lower bound n³/(2√(2S)) versus the measured
//     cost of naive and blocked schedules across cache sizes,
//  2. the Section-3 composite example, where recomputation lets the whole
//     computation move less data than its matmul step analyzed in isolation —
//     the motivation for the RBW game and the decomposition theorems,
//  3. the same matmul executed through a two-level storage hierarchy with the
//     parallel P-RBW game.
//
// Run with:
//
//	go run ./examples/matmul_hierarchy
package main

import (
	"context"
	"fmt"
	"log"

	"cdagio"
	"cdagio/internal/prbw"
)

func main() {
	// --- 1. Matmul: lower bound vs naive and blocked schedules. --------------
	const n = 16
	r := cdagio.MatMul(n)
	ctx := context.Background()
	ws := cdagio.Open(r.Graph)
	fmt.Println("matrix multiplication CDAG:", r.Graph)
	fmt.Printf("%6s %12s %12s %12s\n", "S", "lower bound", "naive I/O", "blocked I/O")
	for _, s := range []int{16, 32, 64, 128} {
		lb := cdagio.MatMulLower(n, s)
		naive, err := ws.PlayCtx(ctx, cdagio.RBW, s, nil, cdagio.Belady, false)
		if err != nil {
			log.Fatal(err)
		}
		block := 2
		for (block+1)*(block+1)*3 <= s {
			block++
		}
		blocked, err := ws.PlayCtx(ctx, cdagio.RBW, s,
			cdagio.MatMulBlocked(r, block), cdagio.Belady, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %12.0f %12d %12d\n", s, lb.Value, naive.IO(), blocked.IO())
	}

	// --- 2. The composite example (Section 3). --------------------------------
	ev, err := cdagio.EvaluateComposite(32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(ev.Report())
	fmt.Println("the composite moves less data than its matmul step analyzed alone, so per-step")
	fmt.Println("bounds cannot be summed naively — the RBW game's decomposition theorem fixes this.")

	// --- 3. Matmul through a hierarchy with the P-RBW game. -------------------
	topo := prbw.Distributed(1, 4, 8, 64, 1<<20)
	asg := prbw.RoundRobin(r.Graph, 4, 0)
	stats, err := ws.PlayParallel(ctx, topo, asg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("P-RBW game: 1 node x 4 cores, 8-word registers, 64-word shared cache:")
	fmt.Print(stats)
}

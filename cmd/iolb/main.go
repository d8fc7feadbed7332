// Command iolb computes data-movement (I/O) lower bounds and measured upper
// bounds for the CDAG of a chosen kernel.
//
// Usage:
//
//	iolb -kernel matmul -n 16 -S 64
//	iolb -kernel jacobi -dim 2 -n 32 -steps 8 -S 128
//	iolb -kernel cg -dim 2 -n 16 -iters 3 -S 256 -candidates 64
//	iolb -kernel jacobi -n 100 -steps 10 -candidates -1 -timeout 30s
//
// -kernel accepts every kind of the generator catalog (internal/gen), the
// kinds cdagd builds: -n sets the size n and also the k and h of the kinds
// sized by those, and jacobi uses the box stencil.
//
// The report lists every lower-bound technique that applied (compulsory I/O,
// min-cut wavefront, 2S-partition, exact search on tiny CDAGs), the measured
// I/O of a Belady-evicted schedule, and the resulting gap.
//
// The analysis runs on a single cdagio.Workspace under a cancellable context:
// -timeout bounds the wall-clock, and an interrupt (Ctrl-C / SIGTERM) stops
// the engines at their next cancellation point instead of killing the
// process mid-solve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cdagio"
	"cdagio/internal/gen"
)

func main() {
	var (
		kernel     = flag.String("kernel", "matmul", "kernel: "+strings.Join(gen.Kinds(), " | "))
		n          = flag.Int("n", 8, "problem size per dimension (also k and h)")
		dim        = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps      = flag.Int("steps", 4, "time steps (jacobi, heat)")
		iters      = flag.Int("iters", 2, "outer iterations (cg, gmres)")
		s          = flag.Int("S", 64, "fast-memory capacity in words")
		candidates = flag.Int("candidates", 0, "wavefront candidate vertices (0 = degree-ranked sample of 32, -1 = all)")
		jobs       = flag.Int("j", 0, "worker goroutines for the wavefront search (0 = GOMAXPROCS)")
		exact      = flag.Int("exact", 0, "run the exact optimal search on CDAGs up to this many vertices")
		blocked    = flag.Bool("blocked", false, "use the blocked/skewed schedule instead of the topological one where available")
		timeout    = flag.Duration("timeout", 0, "abort the analysis after this long (0 = no deadline); Ctrl-C cancels too")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	b, err := gen.Build(&gen.Spec{Kind: *kernel, N: *n, K: *n, H: *n, Dim: *dim, Steps: *steps, Iterations: *iters, Stencil: "box"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iolb:", err)
		os.Exit(1)
	}
	// -blocked swaps in a locality-optimized schedule where one exists.
	var schedule []cdagio.VertexID
	switch {
	case *blocked && b.MatMul != nil:
		block := 2
		for block*block*3 < *n { // crude S-oblivious choice
			block++
		}
		schedule = cdagio.MatMulBlocked(b.MatMul, block)
	case *blocked && b.Jacobi != nil:
		schedule = cdagio.StencilSkewed(b.Jacobi, 4)
	}
	ws := cdagio.Open(b.Graph)
	start := time.Now()
	analysis, err := ws.Analyze(ctx, cdagio.AnalyzeOptions{
		FastMemory:          *s,
		WavefrontCandidates: *candidates,
		Concurrency:         *jobs,
		ExactOptimalLimit:   *exact,
		Schedule:            schedule,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "iolb: analysis cancelled after %v: %v\n", time.Since(start).Round(time.Millisecond), err)
		} else {
			fmt.Fprintln(os.Stderr, "iolb:", err)
		}
		os.Exit(1)
	}
	fmt.Print(analysis.Report())
}

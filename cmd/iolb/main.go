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
	"syscall"
	"time"

	"cdagio"
)

func main() {
	var (
		kernel     = flag.String("kernel", "matmul", "kernel: matmul | composite | fft | jacobi | cg | gmres | dot | outer | chain | pyramid")
		n          = flag.Int("n", 8, "problem size per dimension")
		dim        = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps      = flag.Int("steps", 4, "time steps (jacobi)")
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

	g, schedule, err := buildKernel(*kernel, *n, *dim, *steps, *iters, *blocked)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iolb:", err)
		os.Exit(1)
	}
	ws := cdagio.Open(g)
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

// buildKernel constructs the requested CDAG and, when -blocked is set, a
// locality-optimized schedule for it.  A generator's panic on a size outside
// its domain (an FFT size that is not a power of two, say) is returned as the
// error.
func buildKernel(kernel string, n, dim, steps, iters int, blocked bool) (g *cdagio.Graph, order []cdagio.VertexID, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, order, err = nil, nil, fmt.Errorf("%v", r)
		}
	}()
	switch kernel {
	case "matmul":
		r := cdagio.MatMul(n)
		if blocked {
			block := 2
			for block*block*3 < n { // crude S-oblivious choice
				block++
			}
			return r.Graph, cdagio.MatMulBlocked(r, block), nil
		}
		return r.Graph, nil, nil
	case "composite":
		return cdagio.Composite(n).Graph, nil, nil
	case "fft":
		return cdagio.FFT(n), nil, nil
	case "jacobi":
		r := cdagio.Jacobi(dim, n, steps, cdagio.StencilBox)
		if blocked {
			return r.Graph, cdagio.StencilSkewed(r, 4), nil
		}
		return r.Graph, nil, nil
	case "cg":
		return cdagio.CG(dim, n, iters).Graph, nil, nil
	case "gmres":
		return cdagio.GMRES(dim, n, iters).Graph, nil, nil
	case "dot":
		return cdagio.DotProduct(n), nil, nil
	case "outer":
		return cdagio.OuterProduct(n), nil, nil
	case "chain":
		return cdagio.Chain(n), nil, nil
	case "pyramid":
		return cdagio.Pyramid(n), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown kernel %q", kernel)
	}
}

// Command pebblesim plays pebble games on generated CDAGs and reports their
// data movement: the sequential red-blue / red-blue-white games with a chosen
// fast-memory capacity and eviction policy, or the parallel P-RBW game on a
// distributed storage hierarchy.
//
// Usage:
//
//	pebblesim -kernel fft -n 64 -S 16                      # sequential RBW game
//	pebblesim -kernel matmul -n 12 -S 48 -variant hk       # allow recomputation
//	pebblesim -kernel jacobi -dim 1 -n 64 -steps 8 \
//	          -parallel -nodes 2 -procs 2 -cache 128       # P-RBW game
//
// The games run on a single cdagio.Workspace under a cancellable context:
// -timeout bounds the wall-clock, and an interrupt (Ctrl-C / SIGTERM) stops
// the w^max search and both pebble players at their next cancellation point.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cdagio"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
)

func main() {
	var (
		kernel  = flag.String("kernel", "fft", "kernel: matmul | composite | fft | jacobi | cg | gmres | dot | outer | chain | pyramid")
		n       = flag.Int("n", 16, "problem size per dimension")
		dim     = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps   = flag.Int("steps", 4, "time steps (jacobi)")
		iters   = flag.Int("iters", 2, "outer iterations (cg, gmres)")
		s       = flag.Int("S", 32, "fast-memory capacity in words (sequential game)")
		variant = flag.String("variant", "rbw", "sequential game variant: rbw | hk")
		policy  = flag.String("policy", "belady", "eviction policy: belady | lru")

		parallel = flag.Bool("parallel", false, "play the parallel P-RBW game instead")
		nodes    = flag.Int("nodes", 2, "number of nodes (parallel)")
		procs    = flag.Int("procs", 2, "processors per node (parallel)")
		regs     = flag.Int("regs", 8, "registers per processor (parallel)")
		cache    = flag.Int("cache", 256, "shared cache words per node (parallel)")
		mem      = flag.Int("mem", 1<<20, "main-memory words per node (parallel)")
		grain    = flag.Int("grain", 0, "block-cyclic assignment grain (0 = one block per processor)")

		wmax = flag.Bool("wmax", false, "also report the w^max min-cut wavefront lower bound")
		jobs = flag.Int("j", 0, "worker goroutines for the w^max search (0 = GOMAXPROCS)")

		timeout = flag.Duration("timeout", 0, "abort after this long (0 = no deadline); Ctrl-C cancels too")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := buildKernel(*kernel, *n, *dim, *steps, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pebblesim:", err)
		os.Exit(1)
	}
	fmt.Println(g)
	ws := cdagio.Open(g)

	if *wmax {
		w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{Concurrency: *jobs})
		exitOn(err)
		fmt.Printf("w^max >= %d (at vertex %d, all candidates)\n", w, at)
	}

	if *parallel {
		topo := prbw.Distributed(*nodes, *procs, *regs, *cache, *mem)
		asg := prbw.RoundRobin(g, topo.Processors(), *grain)
		stats, err := ws.PlayParallel(ctx, topo, asg)
		exitOn(err)
		fmt.Print(stats)
		return
	}

	v := pebble.RBW
	if *variant == "hk" {
		v = pebble.HongKung
	}
	p := pebble.Belady
	if *policy == "lru" {
		p = pebble.LRU
	}
	// A nil order plays the workspace's memoized topological schedule.
	res, err := ws.PlayCtx(ctx, v, *s, nil, p, false)
	exitOn(err)
	fmt.Println(res)
}

func exitOn(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "pebblesim: cancelled:", err)
	} else {
		fmt.Fprintln(os.Stderr, "pebblesim:", err)
	}
	os.Exit(1)
}

func buildKernel(kernel string, n, dim, steps, iters int) (*cdagio.Graph, error) {
	switch kernel {
	case "matmul":
		return cdagio.MatMul(n).Graph, nil
	case "composite":
		return cdagio.Composite(n).Graph, nil
	case "fft":
		return cdagio.FFT(n), nil
	case "jacobi":
		return cdagio.Jacobi(dim, n, steps, cdagio.StencilBox).Graph, nil
	case "cg":
		return cdagio.CG(dim, n, iters).Graph, nil
	case "gmres":
		return cdagio.GMRES(dim, n, iters).Graph, nil
	case "dot":
		return cdagio.DotProduct(n), nil
	case "outer":
		return cdagio.OuterProduct(n), nil
	case "chain":
		return cdagio.Chain(n), nil
	case "pyramid":
		return cdagio.Pyramid(n), nil
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
}

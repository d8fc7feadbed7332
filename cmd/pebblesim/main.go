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
// -kernel accepts every kind of the generator catalog (internal/gen), the
// kinds cdagd builds: -n sets the size n and also the k and h of the kinds
// sized by those, and jacobi uses the box stencil.
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
	"strings"
	"syscall"

	"cdagio"
	"cdagio/internal/gen"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
)

func main() {
	var (
		kernel  = flag.String("kernel", "fft", "kernel: "+strings.Join(gen.Kinds(), " | "))
		n       = flag.Int("n", 16, "problem size per dimension (also k and h)")
		dim     = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps   = flag.Int("steps", 4, "time steps (jacobi, heat)")
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

	v, ok := variants[*variant]
	if !ok {
		exitOn(fmt.Errorf("unknown variant %q (want rbw or hk)", *variant))
	}
	p, ok := policies[*policy]
	if !ok {
		exitOn(fmt.Errorf("unknown policy %q (want belady or lru)", *policy))
	}
	b, err := gen.Build(&gen.Spec{Kind: *kernel, N: *n, K: *n, H: *n, Dim: *dim, Steps: *steps, Iterations: *iters, Stencil: "box"})
	exitOn(err)
	g := b.Graph
	fmt.Println(g)
	ws := cdagio.Open(g)

	if *wmax {
		w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{Concurrency: *jobs})
		exitOn(err)
		fmt.Printf("w^max >= %d (at vertex %d, all candidates)\n", w, at)
	}

	if *parallel {
		topo := prbw.Distributed(*nodes, *procs, *regs, *cache, *mem)
		// Check the topology before the assignment divides by its processor
		// count: -nodes or -procs below 1 leave it none.
		exitOn(topo.Validate())
		asg := prbw.RoundRobin(g, topo.Processors(), *grain)
		stats, err := ws.PlayParallel(ctx, topo, asg)
		exitOn(err)
		fmt.Print(stats)
		return
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

// variants and policies map the sequential game's -variant and -policy
// values to the game they select.
var (
	variants = map[string]pebble.Variant{"rbw": pebble.RBW, "hk": pebble.HongKung}
	policies = map[string]pebble.EvictionPolicy{"belady": pebble.Belady, "lru": pebble.LRU}
)

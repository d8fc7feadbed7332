// Command cdaggen generates the CDAG of a chosen kernel and exports it as
// Graphviz DOT or JSON, along with a structural summary (vertex and edge
// counts, depth, width, degree statistics).
//
// Usage:
//
//	cdaggen -kernel fft -n 16 -format dot -o fft16.dot
//	cdaggen -kernel cg -dim 2 -n 8 -iters 2 -format json -o cg.json
//	cdaggen -kernel jacobi -dim 2 -n 6 -steps 3 -stats
//
// -kernel accepts every kind of the generator catalog (internal/gen), the
// kinds cdagd builds: -n sets the size n and also the k and h of the kinds
// sized by those, and jacobi uses the box stencil.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cdagio"
	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

func main() {
	var (
		kernel = flag.String("kernel", "fft", "kernel: "+strings.Join(gen.Kinds(), " | "))
		n      = flag.Int("n", 8, "problem size per dimension (also k and h)")
		dim    = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps  = flag.Int("steps", 3, "time steps (jacobi, heat)")
		iters  = flag.Int("iters", 2, "outer iterations (cg, gmres)")
		format = flag.String("format", "dot", "output format: dot | json | none")
		out    = flag.String("o", "", "output file (default stdout)")
		stats  = flag.Bool("stats", true, "print structural statistics to stderr")
		limit  = flag.Int("limit", 2000, "maximum vertices to include in DOT output (0 = no limit)")
	)
	flag.Parse()

	// Check the format before anything is built or -o is created, so a bad
	// flag leaves no empty file behind.
	var write func(g *cdagio.Graph, w io.Writer) error
	switch *format {
	case "dot":
		write = func(g *cdagio.Graph, w io.Writer) error {
			return g.WriteDOT(w, cdag.DOTOptions{RankLevels: true, MaxVertices: *limit})
		}
	case "json":
		write = (*cdagio.Graph).WriteJSON
	case "none":
		write = func(*cdagio.Graph, io.Writer) error { return nil }
	default:
		exitOn(fmt.Errorf("unknown format %q", *format))
	}

	b, err := gen.Build(&gen.Spec{Kind: *kernel, N: *n, K: *n, H: *n, Dim: *dim, Steps: *steps, Iterations: *iters, Stencil: "box"})
	exitOn(err)
	g := b.Graph
	if *stats {
		fmt.Fprintln(os.Stderr, g)
		fmt.Fprintln(os.Stderr, cdag.ComputeStats(g))
	}

	if *out == "" {
		exitOn(write(g, os.Stdout))
		return
	}
	f, err := os.Create(*out)
	exitOn(err)
	err = write(g, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	exitOn(err)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdaggen:", err)
		os.Exit(1)
	}
}

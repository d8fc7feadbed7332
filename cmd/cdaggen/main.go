// Command cdaggen generates the CDAG of a chosen kernel and exports it as
// Graphviz DOT or JSON, along with a structural summary (vertex and edge
// counts, depth, width, degree statistics).
//
// Usage:
//
//	cdaggen -kernel fft -n 16 -format dot -o fft16.dot
//	cdaggen -kernel cg -dim 2 -n 8 -iters 2 -format json -o cg.json
//	cdaggen -kernel jacobi -dim 2 -n 6 -steps 3 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cdagio"
	"cdagio/internal/cdag"
)

func main() {
	var (
		kernel = flag.String("kernel", "fft", "kernel: matmul | composite | fft | jacobi | cg | gmres | dot | outer | chain | pyramid | binomial")
		n      = flag.Int("n", 8, "problem size per dimension")
		dim    = flag.Int("dim", 2, "grid dimensionality (jacobi, cg, gmres)")
		steps  = flag.Int("steps", 3, "time steps (jacobi)")
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

	g, err := buildKernel(*kernel, *n, *dim, *steps, *iters)
	exitOn(err)
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

// buildKernel constructs the requested CDAG.  A generator's panic on a size
// outside its domain (an FFT size that is not a power of two, say) is
// returned as the error.
func buildKernel(kernel string, n, dim, steps, iters int) (g *cdagio.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("%v", r)
		}
	}()
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
	case "binomial":
		return cdagio.BinomialTree(n), nil
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
}

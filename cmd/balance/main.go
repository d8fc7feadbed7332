// Command balance reproduces the machine-balance analysis of the paper's
// evaluation section: Table 1 (machine specifications and balance
// parameters), the CG analysis of Section 5.2.3, the GMRES analysis of
// Section 5.3.3 and the Jacobi analysis of Section 5.4.3.
//
// Usage:
//
//	balance -all
//	balance -table1
//	balance -cg -n 1000
//	balance -gmres -m 1,10,100,1000
//	balance -jacobi -maxdim 6
//	balance -composite -n 64
//	balance -all -sim -S 32,64,128 -j 8
//
// With -sim the Section 5.2–5.4 analyses additionally run empirical
// per-S memory-simulation sweeps on small generated CDAGs; each sweep runs
// on its graph's cdagio.Workspace, its independent simulations fanning out
// over the sweep worker pool, bounded by -j exactly like the iolb and
// pebblesim commands bound their wavefront searches.  -timeout bounds the
// whole run, and an interrupt (Ctrl-C / SIGTERM) cancels the sweeps between
// simulations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cdagio"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every analysis")
		table1    = flag.Bool("table1", false, "print Table 1 (machine specifications)")
		cg        = flag.Bool("cg", false, "run the CG balance analysis (Section 5.2.3)")
		gmres     = flag.Bool("gmres", false, "run the GMRES balance analysis (Section 5.3.3)")
		jacobi    = flag.Bool("jacobi", false, "run the Jacobi balance analysis (Section 5.4.3)")
		composite = flag.Bool("composite", false, "run the Section-3 composite example")
		n         = flag.Int("n", 1000, "grid points per dimension (CG/GMRES)")
		mList     = flag.String("m", "1,5,10,100,1000", "comma-separated GMRES restart values")
		maxDim    = flag.Int("maxdim", 6, "largest stencil dimension for the Jacobi analysis")
		compN     = flag.Int("compn", 64, "vector length for the composite example")

		sim      = flag.Bool("sim", false, "also run empirical memory-simulation sweeps for Sections 5.2-5.4")
		sList    = flag.String("S", "32,64,128,256", "comma-separated fast-memory capacities for -sim sweeps")
		simN     = flag.Int("simn", 8, "grid points per dimension of the simulated CDAGs (-sim)")
		simNodes = flag.Int("nodes", 2, "nodes of the simulated machine for the Jacobi -sim sweep")
		jobs     = flag.Int("j", 0, "worker goroutines for the -sim sweeps (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "abort after this long (0 = no deadline); Ctrl-C cancels too")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if !*all && !*table1 && !*cg && !*gmres && !*jacobi && !*composite {
		*all = true
	}
	// Sizes below 1 have no CDAG: the generators reject them with a panic,
	// and the closed-form analyses print negative or NaN rows.
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"maxdim", *maxDim}, {"compn", *compN}, {"simn", *simN}, {"nodes", *simNodes}} {
		if f.v < 1 {
			exitOn(fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	ms, err := parseInts(*mList)
	exitOn(err)
	for _, m := range ms {
		if m < 1 {
			exitOn(fmt.Errorf("-m entries must be at least 1, got %d", m))
		}
	}
	machines := cdagio.Table1Machines()
	bgq := cdagio.IBMBGQ()

	if *all || *table1 {
		fmt.Println("== Table 1: machine specifications ==")
		fmt.Print(cdagio.Table1Report())
		fmt.Println()
	}
	var sweepS []int
	if *sim {
		sweepS, err = parseInts(*sList)
		exitOn(err)
	}

	if *all || *cg {
		p := cdagio.CGParams{Dim: 3, N: *n, Iterations: 100,
			Processors: bgq.Nodes * bgq.CoresPerNode, Nodes: bgq.Nodes}
		ev, err := cdagio.EvaluateCG(p, machines)
		exitOn(err)
		fmt.Println("== Conjugate Gradient (Section 5.2.3) ==")
		fmt.Print(ev.Report())
		if *sim {
			g := cdagio.CG(2, *simN, 2).Graph
			exitOn(simSweep(ctx, "CG", g, cdagio.TopologicalSchedule(g), nil, 1, sweepS, *jobs))
		}
		fmt.Println()
	}
	if *all || *gmres {
		ev, err := cdagio.EvaluateGMRES(3, *n, bgq.Nodes*bgq.CoresPerNode, bgq.Nodes, ms, machines)
		exitOn(err)
		fmt.Println("== GMRES (Section 5.3.3) ==")
		fmt.Print(ev.Report())
		if *sim {
			g := cdagio.GMRES(2, *simN, 2).Graph
			exitOn(simSweep(ctx, "GMRES", g, cdagio.TopologicalSchedule(g), nil, 1, sweepS, *jobs))
		}
		fmt.Println()
	}
	if *all || *jacobi {
		fmt.Println("== Jacobi stencils (Section 5.4.3) ==")
		for _, m := range machines {
			ev, err := cdagio.EvaluateJacobi(m, *maxDim)
			exitOn(err)
			fmt.Print(ev.Report())
		}
		if *sim {
			r := cdagio.Jacobi(2, 4**simN, *simN, cdagio.StencilBox)
			owner := cdagio.BlockPartitionGrid(r, *simNodes)
			exitOn(simSweep(ctx, "Jacobi (skewed)", r.Graph, cdagio.StencilSkewed(r, 4),
				owner, *simNodes, sweepS, *jobs))
		}
		fmt.Println()
	}
	if *all || *composite {
		ev, err := cdagio.EvaluateComposite(*compN)
		exitOn(err)
		fmt.Println("== Composite example (Section 3) ==")
		fmt.Print(ev.Report())
	}
}

// simSweep runs one empirical per-S memory-simulation sweep: one simulation
// job per fast-memory capacity, all against the shared graph's Workspace,
// fanned out over the sweep worker pool (workers = the -j flag; ≤ 0 selects
// GOMAXPROCS) under ctx.  Capacities too small to hold a vertex together
// with its predecessors are reported and skipped.
func simSweep(ctx context.Context, name string, g *cdagio.Graph, order []cdagio.VertexID, owner []int,
	nodes int, sweepS []int, workers int) error {

	minWords := 1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(cdagio.VertexID(v)); d+1 > minWords {
			minWords = d + 1
		}
	}
	var jobs []cdagio.MemorySweepJob
	var kept []int
	for _, s := range sweepS {
		if s < minWords {
			fmt.Printf("  %s sweep: S=%d skipped (max in-degree needs >= %d words)\n", name, s, minWords)
			continue
		}
		jobs = append(jobs, cdagio.MemorySweepJob{
			Cfg:   cdagio.MemSimConfig{Nodes: nodes, FastWords: s, Policy: cdagio.MemSimBelady},
			Order: order,
			Owner: owner,
		})
		kept = append(kept, s)
	}
	if len(jobs) == 0 {
		return nil
	}
	stats, err := cdagio.Open(g).SimulateSweep(ctx, jobs, workers)
	if err != nil {
		return err
	}
	fmt.Printf("  %s memory-simulation sweep (%s, %d node(s), Belady):\n", name, g, nodes)
	fmt.Printf("    %8s %14s %14s %14s %14s\n", "S", "vertical", "max/node", "horizontal", "max/node")
	for i, s := range kept {
		fmt.Printf("    %8d %14d %14d %14d %14d\n", s,
			stats[i].VerticalTotal(), stats[i].MaxNodeVertical(),
			stats[i].HorizontalTotal(), stats[i].MaxNodeHorizontal())
	}
	return nil
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "balance:", err)
		os.Exit(1)
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/memsim"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
)

// TestWorkspacePreCancelled drives every context-taking Workspace method with
// an already-cancelled context: each must return ctx.Err() without running
// its engine.
func TestWorkspacePreCancelled(t *testing.T) {
	g := gen.FFT(8)
	ws := NewWorkspace(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if a, err := ws.Analyze(ctx, Options{FastMemory: 4}); !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("Analyze: (%v, %v), want (nil, context.Canceled)", a, err)
	}
	if w, at, err := ws.WMax(ctx, nil, graphalg.WMaxOptions{}); !errors.Is(err, context.Canceled) || w != 0 || at != cdag.InvalidVertex {
		t.Fatalf("WMax: (%d, %d, %v), want (0, InvalidVertex, context.Canceled)", w, at, err)
	}
	if w, err := ws.WavefrontAt(ctx, 0); !errors.Is(err, context.Canceled) || w != 0 {
		t.Fatalf("WavefrontAt: (%d, %v), want (0, context.Canceled)", w, err)
	}
	outs := cdag.NewVertexSet(g.NumVertices())
	outs.AddAll(g.Outputs())
	if k, dom, err := ws.MinDominatorSize(ctx, outs); !errors.Is(err, context.Canceled) || k != 0 || dom != nil {
		t.Fatalf("MinDominatorSize: (%d, %v, %v), want (0, nil, context.Canceled)", k, dom, err)
	}
	if io, err := ws.OptimalIO(ctx, pebble.RBW, 3, pebble.OptimalOptions{}); !errors.Is(err, context.Canceled) || io != 0 {
		t.Fatalf("OptimalIO: (%d, %v), want (0, context.Canceled)", io, err)
	}
	if st, err := ws.Simulate(ctx, memsim.Config{Nodes: 1, FastWords: 8, Policy: memsim.Belady}, sched.Topological(g), nil); !errors.Is(err, context.Canceled) || st != nil {
		t.Fatalf("Simulate: (%v, %v), want (nil, context.Canceled)", st, err)
	}
	jobs := []memsim.Job{{Cfg: memsim.Config{Nodes: 1, FastWords: 8, Policy: memsim.Belady}, Order: sched.Topological(g)}}
	if st, err := ws.SimulateSweep(ctx, jobs, 2); !errors.Is(err, context.Canceled) || st != nil {
		t.Fatalf("SimulateSweep: (%v, %v), want (nil, context.Canceled)", st, err)
	}
	if st, err := ws.PlayParallel(ctx, prbw.TwoLevel(2, 8, 1<<20), prbw.SingleProcessor(g)); !errors.Is(err, context.Canceled) || st != nil {
		t.Fatalf("PlayParallel: (%v, %v), want (nil, context.Canceled)", st, err)
	}
	if res, err := ws.PlayCtx(ctx, pebble.RBW, 4, nil, pebble.Belady, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlayCtx: (%v, %v), want context.Canceled", res, err)
	}
	// A cancelled PlayCtx leaves the workspace serving bit-identically.
	want, err := NewWorkspace(g).PlayCtx(context.Background(), pebble.RBW, 4, nil, pebble.Belady, false)
	if err != nil {
		t.Fatalf("PlayCtx on a fresh workspace: %v", err)
	}
	got, err := ws.PlayCtx(context.Background(), pebble.RBW, 4, nil, pebble.Belady, false)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PlayCtx after a cancelled play diverges: (%+v, %v) vs %+v", got, err, want)
	}
}

// TestWorkspaceAnalyzeEquivalence proves memoization and worker count
// invisible under context.Background(): a reused handle (twice, so memoized
// state is exercised) returns the same Analysis — bounds, witnesses, measured
// I/O, report — as a fresh handle's first analysis, at several worker counts.
func TestWorkspaceAnalyzeEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *cdag.Graph
		opts Options
	}{
		{"fft16-exact", gen.FFT(16), Options{FastMemory: 4, ExactOptimalLimit: 80, WavefrontCandidates: -1}},
		{"jacobi", gen.Jacobi(2, 8, 3, gen.StencilBox).Graph, Options{FastMemory: 16}},
		{"cg-allcands", gen.CG(2, 6, 2).Graph, Options{FastMemory: 32, WavefrontCandidates: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := NewWorkspace(tc.g).Analyze(ctx, tc.opts)
			if err != nil {
				t.Fatalf("fresh-workspace Analyze: %v", err)
			}
			ws := NewWorkspace(tc.g)
			for _, conc := range []int{0, 1, 2, 7} {
				opts := tc.opts
				opts.Concurrency = conc
				for round := 0; round < 2; round++ {
					got, err := ws.Analyze(ctx, opts)
					if err != nil {
						t.Fatalf("ws.Analyze (conc=%d round=%d): %v", conc, round, err)
					}
					// Concurrency only steers the worker pool; the analysis is
					// deterministic, so the whole struct must match.
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ws.Analyze (conc=%d round=%d) diverges:\n got %+v\nwant %+v",
							conc, round, got, want)
					}
					if got.Report() != want.Report() {
						t.Fatalf("report text diverges (conc=%d round=%d)", conc, round)
					}
				}
			}
		})
	}
}

// TestWorkspaceEnginesMatchFreeFunctions pins the remaining Workspace engine
// methods against the package-level engines they run on, called directly
// under context.Background() on fresh solvers.
func TestWorkspaceEnginesMatchFreeFunctions(t *testing.T) {
	ctx := context.Background()
	g := gen.CG(2, 8, 2).Graph
	ws := NewWorkspace(g)

	// WMax vs the w^max engine on fresh solvers, across worker counts.
	wantW, wantAt, err := graphalg.MaxMinWavefrontLowerBoundCtx(ctx, g, nil, graphalg.WMaxOptions{Concurrency: 1})
	if err != nil {
		t.Fatalf("MaxMinWavefrontLowerBoundCtx: %v", err)
	}
	for _, conc := range []int{0, 1, 3} {
		w, at, err := ws.WMax(ctx, nil, graphalg.WMaxOptions{Concurrency: conc})
		if err != nil || w != wantW || at != wantAt {
			t.Fatalf("WMax conc=%d: (%d, %d, %v), want (%d, %d, nil)", conc, w, at, err, wantW, wantAt)
		}
	}

	// WavefrontAt vs a fresh solver on a sample of vertices.
	for x := 0; x < g.NumVertices(); x += 97 {
		want := graphalg.NewCutSolver().MinWavefrontAt(g, cdag.VertexID(x))
		got, err := ws.WavefrontAt(ctx, cdag.VertexID(x))
		if err != nil || got != want {
			t.Fatalf("WavefrontAt(%d): (%d, %v), want (%d, nil)", x, got, err, want)
		}
	}

	// OptimalIO vs the exact search, on the success path and on the budget
	// error path.
	small := gen.FFT(4)
	wsSmall := NewWorkspace(small)
	wantIO, wantErr := pebble.OptimalIOCtx(ctx, small, pebble.RBW, 3, pebble.OptimalOptions{})
	gotIO, gotErr := wsSmall.OptimalIO(ctx, pebble.RBW, 3, pebble.OptimalOptions{})
	if gotIO != wantIO || !errors.Is(gotErr, wantErr) {
		t.Fatalf("OptimalIO: (%d, %v), want (%d, %v)", gotIO, gotErr, wantIO, wantErr)
	}
	if _, err := wsSmall.OptimalIO(ctx, pebble.RBW, 3, pebble.OptimalOptions{MaxStates: 5}); !errors.Is(err, pebble.ErrSearchBudget) {
		t.Fatalf("OptimalIO budget error = %v, want ErrSearchBudget", err)
	}

	// PlayCtx (nil order = memoized topological) vs the schedule player.
	order := sched.Topological(g)
	wantRes, err := pebble.PlayScheduleCtx(ctx, g, pebble.RBW, 48, order, pebble.Belady, false)
	if err != nil {
		t.Fatalf("PlayScheduleCtx: %v", err)
	}
	gotRes, err := ws.PlayCtx(ctx, pebble.RBW, 48, nil, pebble.Belady, false)
	if err != nil || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("PlayCtx: (%+v, %v), want (%+v, nil)", gotRes, err, wantRes)
	}

	// PlayParallel vs prbw.PlayCtx.
	topo := prbw.TwoLevel(4, 64, 1<<20)
	asg := prbw.SingleProcessor(g)
	wantStats, err := prbw.PlayCtx(ctx, g, topo, asg)
	if err != nil {
		t.Fatalf("prbw.PlayCtx: %v", err)
	}
	gotStats, err := ws.PlayParallel(ctx, topo, asg)
	if err != nil || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("PlayParallel diverges: %v", err)
	}

	// Simulate / SimulateSweep vs serial memsim.RunCtx, at several worker
	// counts.
	cfgs := []memsim.Config{
		{Nodes: 1, FastWords: 32, Policy: memsim.Belady},
		{Nodes: 1, FastWords: 64, Policy: memsim.Belady},
		{Nodes: 1, FastWords: 32, Policy: memsim.LRU},
	}
	var jobs []memsim.Job
	var wantSweep []*memsim.Stats
	for _, cfg := range cfgs {
		st, err := memsim.RunCtx(ctx, g, cfg, order, nil)
		if err != nil {
			t.Fatalf("memsim.RunCtx: %v", err)
		}
		wantSweep = append(wantSweep, st)
		jobs = append(jobs, memsim.Job{Cfg: cfg, Order: order})
	}
	gotOne, err := ws.Simulate(ctx, cfgs[0], order, nil)
	if err != nil || !reflect.DeepEqual(gotOne, wantSweep[0]) {
		t.Fatalf("Simulate diverges: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 5} {
		got, err := ws.SimulateSweep(ctx, jobs, workers)
		if err != nil || !reflect.DeepEqual(got, wantSweep) {
			t.Fatalf("SimulateSweep workers=%d diverges: %v", workers, err)
		}
	}

	// MinDominatorSize vs a fresh solver.
	outs := cdag.NewVertexSet(g.NumVertices())
	outs.AddAll(g.Outputs())
	wantK, wantDom := graphalg.NewCutSolver().MinDominatorSize(g, outs)
	gotK, gotDom, err := ws.MinDominatorSize(ctx, outs)
	if err != nil || gotK != wantK || !reflect.DeepEqual(gotDom, wantDom) {
		t.Fatalf("MinDominatorSize: (%d, %v, %v), want (%d, %v, nil)", gotK, gotDom, err, wantK, wantDom)
	}
}

// TestWMaxAllocationsPerScan pins a warmed Workspace's all-candidates w^max
// scan to a fixed number of allocations per call: scanning Composite(12)
// (3,791 vertices) may allocate at most 32 more times than scanning
// Composite(6) (527 vertices), FFT(1024) (11,264 vertices) at most 32 more
// than FFT(64) (448 vertices), and ReductionTree(8192) (16,383 vertices) at
// most 32 more than ReductionTree(64) (127 vertices), where one allocation
// per candidate in any of the three passes would add thousands.  The FFT
// and tree scans key their candidates on source and sink intervals: the
// source intervals reuse the schedule sweeps' arrays, and the sink intervals
// and cone sizes take four arrays per scan.  AllocsPerRun runs the scan at
// GOMAXPROCS 1, so it takes one worker.
func TestWMaxAllocationsPerScan(t *testing.T) {
	allocs := func(g *cdag.Graph) float64 {
		ws := NewWorkspace(g)
		scan := func() {
			if _, _, err := ws.WMax(context.Background(), nil, graphalg.WMaxOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		return testing.AllocsPerRun(3, scan)
	}
	for _, pair := range []struct {
		kernel       string
		small, large *cdag.Graph
	}{
		{"composite", gen.Composite(6).Graph, gen.Composite(12).Graph},
		{"fft", gen.FFT(64), gen.FFT(1024)},
		{"reduction", gen.ReductionTree(64), gen.ReductionTree(8192)},
	} {
		small, large := allocs(pair.small), allocs(pair.large)
		t.Logf("%s: %v allocations on %d vertices, %v on %d", pair.kernel,
			small, pair.small.NumVertices(), large, pair.large.NumVertices())
		if large > small+32 {
			t.Errorf("%s: %v allocations on %d vertices against %v on %d: the scan allocates per candidate",
				pair.kernel, large, pair.large.NumVertices(), small, pair.small.NumVertices())
		}
	}
}

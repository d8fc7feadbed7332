package graphalg

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// sortedCut copies and sorts a cut set for order-insensitive comparison.
func sortedCut(cut []cdag.VertexID) []cdag.VertexID {
	out := append([]cdag.VertexID(nil), cut...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestWarmColdCutEquivalence drives a warm-started solver and a cold solver
// through identical random candidate sequences on every generator family and
// checks, candidate by candidate, that the bound values AND the canonical
// minimum cut sets agree exactly.  The cut-set comparison is the strong form
// of the warm-start exactness claim: the residual-reachable source side of a
// maximum flow is the minimal min-cut source side shared by every maximum
// flow, so it must not depend on the feasible flow Dinic started from.
func TestWarmColdCutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, g := range generatorGraphs(t) {
		warm := NewCutSolver()
		warm.ensureGraph(g)
		cold := NewCutSolver()
		cold.ensureGraph(g)
		verts := g.Vertices()
		var wCut, cCut []cdag.VertexID
		for step := 0; step < 48; step++ {
			x := verts[rng.Intn(len(verts))]
			warm.explore(x)
			wv, wAborted := warm.minWavefrontRun(x, 0, true)
			cold.explore(x)
			cv, cAborted := cold.minWavefrontRun(x, 0, false)
			if wAborted || cAborted {
				t.Fatalf("%s step %d vertex %d: unbounded solve reported an abort", name, step, x)
			}
			if wv != cv {
				t.Fatalf("%s step %d vertex %d: warm bound %d, cold bound %d", name, step, x, wv, cv)
			}
			if len(warm.desc) == 0 {
				continue // no network was built; there is no cut to compare
			}
			wCut = warm.lastStripCut(wCut)
			cCut = cold.lastStripCut(cCut)
			ws, cs := sortedCut(wCut), sortedCut(cCut)
			if len(ws) != len(cs) {
				t.Fatalf("%s step %d vertex %d: warm cut size %d, cold cut size %d", name, step, x, len(ws), len(cs))
			}
			for i := range ws {
				if ws[i] != cs[i] {
					t.Fatalf("%s step %d vertex %d: warm cut %v, cold cut %v", name, step, x, ws, cs)
				}
			}
		}
	}
}

// TestWarmColdCutEquivalenceRandomDAGs is the randomized-topology counterpart
// of TestWarmColdCutEquivalence: seeded random DAGs, every vertex visited in a
// shuffled order so consecutive warm starts cross between unrelated cones.
func TestWarmColdCutEquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(50)
		g := randomDAG(rng, n, 2*n)
		warm := NewCutSolver()
		warm.ensureGraph(g)
		cold := NewCutSolver()
		cold.ensureGraph(g)
		order := g.Vertices()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var wCut, cCut []cdag.VertexID
		for _, x := range order {
			warm.explore(x)
			wv, _ := warm.minWavefrontRun(x, 0, true)
			cold.explore(x)
			cv, _ := cold.minWavefrontRun(x, 0, false)
			if wv != cv {
				t.Fatalf("trial %d vertex %d: warm bound %d, cold bound %d", trial, x, wv, cv)
			}
			if len(warm.desc) == 0 {
				continue
			}
			wCut = warm.lastStripCut(wCut)
			cCut = cold.lastStripCut(cCut)
			ws, cs := sortedCut(wCut), sortedCut(cCut)
			if len(ws) != len(cs) {
				t.Fatalf("trial %d vertex %d: warm cut %v, cold cut %v", trial, x, ws, cs)
			}
			for i := range ws {
				if ws[i] != cs[i] {
					t.Fatalf("trial %d vertex %d: warm cut %v, cold cut %v", trial, x, ws, cs)
				}
			}
		}
	}
}

// TestAbortCertificateSound checks the level-cut abort against ground truth on
// every generator family: a solve bounded by need may only abort when the true
// wavefront is provably below need, and when it does not abort it must return
// the exact value.  need sweeps below, at, and above the true value, with and
// without warm-started initial flow (an abort's lim accounts for seeded units).
func TestAbortCertificateSound(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		cs := NewCutSolver()
		cs.ensureGraph(g)
		for _, x := range g.Vertices() {
			cs.explore(x)
			want, _ := cs.minWavefrontRun(x, 0, false)
			for _, warm := range []bool{false, true} {
				for _, need := range []int{1, want - 1, want, want + 1, want + 5} {
					if need <= 0 {
						continue
					}
					cs.explore(x)
					got, aborted := cs.minWavefrontRun(x, need, warm)
					if aborted {
						if want >= need {
							t.Fatalf("%s vertex %d (need=%d warm=%v): aborted but true bound is %d",
								name, x, need, warm, want)
						}
						continue
					}
					if got != want {
						t.Fatalf("%s vertex %d (need=%d warm=%v): bound %d, want %d",
							name, x, need, warm, got, want)
					}
				}
			}
		}
	}
}

// TestIncrementalModesMatchSerial checks the incremental-flow machinery —
// the seed pass, warm starts and the mid-solve abort — against the serial
// all-candidates bound and witness on every generator family, at one and at
// four workers, with the scans repeated on one solver pool: the second round
// starts from solvers still carrying the flow paths harvested by the first,
// which the warm start must trim or drop, never trust.
func TestIncrementalModesMatchSerial(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		wantW, wantV := maxMinWavefrontLowerBoundSerial(g, nil)
		pool := NewSolverPool(g)
		for round := 0; round < 2; round++ {
			for _, conc := range []int{1, 4} {
				gotW, gotV := wmax(t, g, nil, WMaxOptions{Concurrency: conc, Pool: pool})
				if gotW != wantW || gotV != wantV {
					t.Errorf("%s (round=%d conc=%d): (bound, witness) = (%d, %d), serial (%d, %d)",
						name, round, conc, gotW, gotV, wantW, wantV)
				}
			}
		}
	}
}

// TestCancelMidScanLarge cancels a full-candidate scan partway through on a
// large stencil CDAG and checks that the scan surfaces ctx.Err() promptly —
// the warm-start and abort machinery must not extend cancellation latency
// beyond the documented bound (workers × one candidate).  Short mode trims
// the instance so the race-enabled CI job exercises the same path cheaply.
func TestCancelMidScanLarge(t *testing.T) {
	n := 512 // 2·512² ≈ 1M vertices: the full-scale scan of the 1M benchmark
	delay := 300 * time.Millisecond
	if testing.Short() {
		n = 96
		delay = 20 * time.Millisecond
	}
	g := gen.Jacobi(2, n, 3, gen.StencilBox).Graph
	g.Materialize()
	ctx, cancel := context.WithTimeout(context.Background(), delay)
	defer cancel()
	start := time.Now()
	_, _, err := MaxMinWavefrontLowerBoundCtx(ctx, g, nil, WMaxOptions{Concurrency: 4})
	if err == nil {
		// The scan finished before the deadline; that is legal (and means the
		// machine is fast), but the test then says nothing — rerun tighter.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, _, err2 := MaxMinWavefrontLowerBoundCtx(ctx2, g, nil, WMaxOptions{Concurrency: 4}); err2 == nil {
			t.Fatal("scan under a cancelled context returned no error")
		}
		return
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("scan returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > delay+5*time.Second {
		t.Fatalf("cancellation took %v after a %v deadline", elapsed, delay)
	}
}

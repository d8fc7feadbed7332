package graphalg

import (
	"context"
	"math/rand"
	"slices"
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

// TestReusedSolverMatchesFresh drives one solver through every vertex of
// seeded random DAGs in a shuffled order, so consecutive candidates cross
// between unrelated cones, and solves each vertex again on a fresh solver.
// Bound values and canonical minimum cut sets must agree exactly: nothing a
// solve leaves in the reused solver's marks, remap tables or network arrays
// may leak into the next candidate's result.
func TestReusedSolverMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(50)
		g := randomDAG(rng, n, 2*n)
		reused := NewCutSolver()
		reused.ensureGraph(g)
		order := g.Vertices()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var rCut, fCut []cdag.VertexID
		for _, x := range order {
			fresh := NewCutSolver()
			fresh.ensureGraph(g)
			reused.explore(x)
			rv := reused.minWavefront(x)
			fresh.explore(x)
			fv := fresh.minWavefront(x)
			if rv != fv {
				t.Fatalf("trial %d vertex %d: reused bound %d, fresh bound %d", trial, x, rv, fv)
			}
			if len(reused.desc) == 0 {
				continue // no network was built; there is no cut to compare
			}
			rCut = reused.lastStripCut(rCut)
			fCut = fresh.lastStripCut(fCut)
			if rs, fs := sortedCut(rCut), sortedCut(fCut); !slices.Equal(rs, fs) {
				t.Fatalf("trial %d vertex %d: reused cut %v, fresh cut %v", trial, x, rs, fs)
			}
		}
	}
}

// TestAbortCertificateSound checks the level-cut abort against ground truth on
// every generator family: a solve bounded by need may only abort when the true
// wavefront is provably below need, and when it does not abort it must return
// the exact value.  need sweeps below, at, and above the true value.
func TestAbortCertificateSound(t *testing.T) {
	for name, g := range generatorGraphs(t) {
		cs := NewCutSolver()
		cs.ensureGraph(g)
		for _, x := range g.Vertices() {
			cs.explore(x)
			want := cs.minWavefront(x)
			for _, need := range []int{1, want - 1, want, want + 1, want + 5} {
				if need <= 0 {
					continue
				}
				cs.explore(x)
				got, aborted := cs.minWavefrontRun(x, need, spans{})
				if aborted {
					if want >= need {
						t.Fatalf("%s vertex %d (need=%d): aborted but true bound is %d", name, x, need, want)
					}
					continue
				}
				if got != want {
					t.Fatalf("%s vertex %d (need=%d): bound %d, want %d", name, x, need, got, want)
				}
			}
		}
	}
}

// TestIncrementalModesMatchSerial checks the scan's pruning machinery — the
// seed pass, the keys of the bound pass and the mid-solve abort — against the
// serial all-candidates bound and witness on every generator family, at one
// and at four workers, with the scans repeated on one solver pool: the second
// round starts from solvers whose marks and networks the first round left
// behind.
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
// the pruning and abort machinery must not extend cancellation latency beyond
// the documented bound (workers × one candidate).  Short mode trims
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

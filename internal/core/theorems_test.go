package core

import (
	"context"
	"testing"

	"cdagio/internal/bounds"
	"cdagio/internal/gen"
	"cdagio/internal/pebble"
	"cdagio/internal/sched"
)

func TestCGMinCutBoundStructure(t *testing.T) {
	dim, n, iters, s := 1, 12, 3, 4
	cg := gen.CG(dim, n, iters)
	tb := CGMinCutBound(cg, s)
	if len(tb.PerIteration) != iters {
		t.Fatalf("per-iteration entries = %d, want %d", len(tb.PerIteration), iters)
	}
	// Theorem 8's wavefronts: >= 2·n^d at alpha and >= n^d at gamma.
	for i, w := range tb.PerIteration {
		if w[0] < 2*n {
			t.Errorf("iteration %d: alpha wavefront %d < %d", i, w[0], 2*n)
		}
		if w[1] < n {
			t.Errorf("iteration %d: gamma wavefront %d < %d", i, w[1], n)
		}
	}
	// The executable bound matches or exceeds the closed form (which uses the
	// minimum wavefront sizes 2n^d and n^d).
	if float64(tb.Total) < tb.ClosedForm {
		t.Errorf("executable bound %d below closed form %v", tb.Total, tb.ClosedForm)
	}
	if tb.AsBound("CG Theorem 8 (executable)").Kind != bounds.Lower {
		t.Errorf("AsBound kind wrong")
	}
}

func TestGMRESMinCutBoundStructure(t *testing.T) {
	dim, n, iters, s := 1, 10, 3, 4
	gm := gen.GMRES(dim, n, iters)
	tb := GMRESMinCutBound(gm, s)
	if len(tb.PerIteration) != iters {
		t.Fatalf("per-iteration entries = %d", len(tb.PerIteration))
	}
	for i, w := range tb.PerIteration {
		if w[0] < 2*n {
			t.Errorf("iteration %d: dot wavefront %d < %d", i, w[0], 2*n)
		}
		if w[1] < n {
			t.Errorf("iteration %d: norm wavefront %d < %d", i, w[1], n)
		}
	}
	// The executable recipe yields at least m·2·(3n^d − 2S) — the sum of the
	// two per-iteration Lemma 2 terms.  (The paper states the slightly larger
	// 2·(3n^d − S); the difference is the paper folding the two −S terms into
	// one and vanishes asymptotically.)
	consistent := float64(iters) * 2 * (3*float64(n) - 2*float64(s))
	if float64(tb.Total) < consistent {
		t.Errorf("executable bound %d below per-iteration sum %v", tb.Total, consistent)
	}
	if tb.ClosedForm <= 0 {
		t.Errorf("closed form not positive")
	}
}

func TestMinCutBoundBelowMeasuredIO(t *testing.T) {
	// The executable Theorem 8/9 bounds are lower bounds: an actual legal
	// game's I/O must never fall below them.
	s := 6
	cg := gen.CG(1, 8, 2)
	tbCG := CGMinCutBound(cg, s)
	resCG, err := pebble.PlayScheduleCtx(context.Background(), cg.Graph, pebble.RBW, s, sched.Topological(cg.Graph), pebble.Belady, false)
	if err != nil {
		t.Fatalf("CG play: %v", err)
	}
	if int64(resCG.IO()) < tbCG.Total {
		t.Errorf("CG measured I/O %d below Theorem 8 bound %d", resCG.IO(), tbCG.Total)
	}

	gm := gen.GMRES(1, 8, 2)
	tbGM := GMRESMinCutBound(gm, s)
	resGM, err := pebble.PlayScheduleCtx(context.Background(), gm.Graph, pebble.RBW, s, sched.Topological(gm.Graph), pebble.Belady, false)
	if err != nil {
		t.Fatalf("GMRES play: %v", err)
	}
	if int64(resGM.IO()) < tbGM.Total {
		t.Errorf("GMRES measured I/O %d below Theorem 9 bound %d", resGM.IO(), tbGM.Total)
	}
}

func TestMinCutBoundLargeSClamps(t *testing.T) {
	cg := gen.CG(1, 4, 1)
	tb := CGMinCutBound(cg, 10_000)
	if tb.Total != 0 || tb.ClosedForm != 0 {
		t.Errorf("huge S should clamp the bound to zero, got %d / %v", tb.Total, tb.ClosedForm)
	}
}

package bounds

import (
	"math"
	"strings"
	"testing"
)

func TestBoundString(t *testing.T) {
	b := Bound{Value: 42, Kind: Lower, Technique: "test", Assumptions: "exact"}
	s := b.String()
	if !strings.Contains(s, "lower") || !strings.Contains(s, "42") || !strings.Contains(s, "exact") {
		t.Errorf("String = %q", s)
	}
	if Upper.String() != "upper" || Lower.String() != "lower" {
		t.Errorf("kind strings wrong")
	}
}

func TestCompositionHelpers(t *testing.T) {
	d := Decomposition([]Bound{
		{Value: 10, Kind: Lower},
		{Value: 5, Kind: Lower},
		{Value: 100, Kind: Upper}, // ignored: not a lower bound
	})
	if d.Value != 15 || d.Kind != Lower {
		t.Errorf("Decomposition = %+v", d)
	}
}

func TestParallelConversions(t *testing.T) {
	v := VerticalFromSequential(Bound{Value: 1000, Kind: Lower, Technique: "seq"}, 4)
	if v.Value != 250 {
		t.Errorf("VerticalFromSequential = %v", v.Value)
	}
	if VerticalFromSequential(Bound{Value: 100, Kind: Lower}, 0).Value != 100 {
		t.Errorf("nL=0 should behave like 1")
	}

	// Theorem 6: |V|=1000, U=10, S=4, N_{l-1}=8, N_l=2:
	// (1000/(10*2) - 8/2) * 4 = (50-4)*4 = 184.
	p := VerticalFromPartition(1000, 10, 4, 8, 2)
	if p.Value != 184 {
		t.Errorf("VerticalFromPartition = %v, want 184", p.Value)
	}
	if VerticalFromPartition(10, 1000, 4, 8, 2).Value != 0 {
		t.Errorf("negative partition bound should clamp to 0")
	}
	if VerticalFromPartition(10, 0, 4, 8, 2).Value != 0 {
		t.Errorf("u2S=0 should yield 0")
	}

	// Theorem 7: |V|=1000, U=10, S_L=16, P_i=4: (1000/40 - 1)*16 = 384.
	h := HorizontalFromPartition(1000, 10, 16, 4)
	if h.Value != 384 {
		t.Errorf("HorizontalFromPartition = %v, want 384", h.Value)
	}
	if HorizontalFromPartition(10, 10, 16, 4).Value != 0 {
		t.Errorf("small |V| should clamp to 0")
	}
}

func TestKernelClosedForms(t *testing.T) {
	m := MatMulLower(100, 128)
	want := 1e6 / (2 * math.Sqrt(256))
	if math.Abs(m.Value-want) > 1e-9 {
		t.Errorf("MatMulLower = %v, want %v", m.Value, want)
	}
	o := OuterProductIO(10)
	if o.Value != 120 {
		t.Errorf("OuterProductIO = %v, want 120", o.Value)
	}
	f := FFTLower(1024, 32)
	wantF := 1024 * 10 / (2 * math.Log2(64))
	if math.Abs(f.Value-wantF) > 1e-9 {
		t.Errorf("FFTLower = %v, want %v", f.Value, wantF)
	}
	if FFTLower(1, 0).Value != 0 {
		t.Errorf("degenerate FFTLower should be 0")
	}
}

func TestCGSection523Numbers(t *testing.T) {
	// The headline number of Section 5.2.3: for d=3, n=1000,
	// LB_vert · N_nodes / |V| = 6/20 = 0.3, independent of T and the machine.
	p := CGParams{Dim: 3, N: 1000, Iterations: 10, Processors: 2048 * 16, Nodes: 2048}
	got := CGVerticalPerFlop(p)
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("CG vertical per FLOP = %v, want 0.3", got)
	}
	// Horizontal: 6·Nodes^{1/3} / (20·n).
	want := 6 * math.Cbrt(2048) / (20 * 1000)
	goth := CGHorizontalPerFlop(p)
	if math.Abs(goth-want)/want > 0.25 {
		t.Errorf("CG horizontal per FLOP = %v, want about %v", goth, want)
	}
	// The horizontal value is orders of magnitude below the vertical one.
	if goth > got/10 {
		t.Errorf("horizontal (%v) should be far below vertical (%v)", goth, got)
	}
	// Operation count matches the paper's 20·n³·T for d=3.
	if p.Flops() != 20*1e9*10 {
		t.Errorf("CG flops = %v", p.Flops())
	}
}

func TestCGBoundsShape(t *testing.T) {
	p := CGParams{Dim: 2, N: 100, Iterations: 5, Processors: 16, Nodes: 4}
	exact := CGVerticalLower(p, 64)
	asym := CGVerticalLowerAsymptotic(p)
	if exact.Value <= 0 || asym.Value <= 0 {
		t.Fatalf("CG bounds not positive: %v %v", exact.Value, asym.Value)
	}
	// The exact form is below the asymptotic form (it subtracts the 2S term).
	if exact.Value > asym.Value {
		t.Errorf("exact %v exceeds asymptotic %v", exact.Value, asym.Value)
	}
	// S larger than the grid wipes out the bound.
	if CGVerticalLower(p, 1<<30).Value != 0 {
		t.Errorf("huge S should clamp the bound to 0")
	}
	ub := CGHorizontalUpper(p)
	if ub.Kind != Upper || ub.Value <= 0 {
		t.Errorf("CG horizontal upper = %+v", ub)
	}
}

func TestGMRESSection533Numbers(t *testing.T) {
	// Section 5.3.3: LB_vert·Nodes/|V| = 6/(m+20) for d=3.
	for _, m := range []int{1, 5, 20, 100} {
		p := GMRESParams{Dim: 3, N: 1000, Iterations: m, Processors: 2048 * 16, Nodes: 2048}
		got := GMRESVerticalPerFlop(p)
		want := 6.0 / (float64(m) + 20)
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("m=%d: GMRES vertical per FLOP = %v, want %v", m, got, want)
		}
	}
	// Horizontal: ≈ 6·Nodes^{1/3}/(n·m) — must sit far below the vertical value.
	p := GMRESParams{Dim: 3, N: 1000, Iterations: 10, Processors: 2048 * 16, Nodes: 2048}
	h := GMRESHorizontalPerFlop(p)
	if h <= 0 || h > GMRESVerticalPerFlop(p)/10 {
		t.Errorf("GMRES horizontal per FLOP = %v not far below vertical %v", h, GMRESVerticalPerFlop(p))
	}
}

func TestGMRESBoundsShape(t *testing.T) {
	p := GMRESParams{Dim: 2, N: 64, Iterations: 8, Processors: 8, Nodes: 2}
	if GMRESVerticalLower(p, 16).Value <= 0 {
		t.Errorf("GMRES lower bound not positive")
	}
	if GMRESVerticalLower(p, 1<<30).Value != 0 {
		t.Errorf("huge S should clamp to 0")
	}
	if GMRESVerticalLower(p, 16).Value > GMRESVerticalLowerAsymptotic(p).Value {
		t.Errorf("exact exceeds asymptotic")
	}
	if GMRESHorizontalUpper(p).Value <= 0 {
		t.Errorf("GMRES horizontal upper not positive")
	}
}

func TestJacobiTheorem10(t *testing.T) {
	// 2-D: Q >= n²T / (4·P·√(2S)).
	p := JacobiParams{Dim: 2, N: 1000, Steps: 100, Processors: 4, Nodes: 1}
	s := int64(5000)
	got := JacobiLower(p, s).Value
	want := 1e6 * 100 / (4 * 4 * math.Sqrt(2*5000))
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("JacobiLower = %v, want %v", got, want)
	}
	// The per-FLOP bound 1/(4·(2S)^{1/d}) grows with the dimension — the
	// mechanism behind Section 5.4.3's conclusion that only high-dimensional
	// stencils become bandwidth bound.
	if JacobiVerticalPerFlop(3, s) <= JacobiVerticalPerFlop(2, s) {
		t.Errorf("per-FLOP bound should increase with dimension: d=3 %v vs d=2 %v",
			JacobiVerticalPerFlop(3, s), JacobiVerticalPerFlop(2, s))
	}
	// Horizontal ghost cells: 2d·B^{d−1}·T.
	h := JacobiHorizontalUpper(JacobiParams{Dim: 2, N: 1000, Steps: 10, Processors: 16, Nodes: 4})
	wantH := 4.0 * (1000 / math.Sqrt(4)) * 10
	if math.Abs(h.Value-wantH)/wantH > 1e-12 {
		t.Errorf("JacobiHorizontalUpper = %v, want %v", h.Value, wantH)
	}
}

func TestJacobiMaxUnboundDimension(t *testing.T) {
	// With the BG/Q main-memory balance 0.052 and S2 = 4 MWords the threshold
	// dimension is finite and at least the practically relevant d = 4; with
	// the much larger L1/L2 balance the threshold is far higher.
	dMem := JacobiMaxUnboundDimension(0.052, 4_000_000)
	if math.IsInf(dMem, 1) || dMem < 4 || dMem > 20 {
		t.Errorf("BG/Q memory threshold dimension = %v, want a finite value in [4,20]", dMem)
	}
	dCache := JacobiMaxUnboundDimension(0.5, 4_000_000)
	if !math.IsInf(dCache, 1) && dCache < dMem {
		t.Errorf("larger balance should not lower the threshold: %v vs %v", dCache, dMem)
	}
	if JacobiMaxUnboundDimension(0, 100) != 0 || JacobiMaxUnboundDimension(0.1, 0) != 0 {
		t.Errorf("degenerate inputs should give 0")
	}
	// A balance above 1/4 admits every dimension.
	if !math.IsInf(JacobiMaxUnboundDimension(0.3, 100), 1) {
		t.Errorf("balance > 1/4 should admit every dimension")
	}
}

func TestFlopsCounts(t *testing.T) {
	cg := CGParams{Dim: 3, N: 10, Iterations: 2}
	if cg.Flops() != 20*1000*2 {
		t.Errorf("CG flops = %v", cg.Flops())
	}
	gm := GMRESParams{Dim: 3, N: 10, Iterations: 4}
	if gm.Flops() != 20*1000*4+1000*16 {
		t.Errorf("GMRES flops = %v", gm.Flops())
	}
	ja := JacobiParams{Dim: 2, N: 10, Steps: 7}
	if cg.Points() != 1000 || gm.Points() != 1000 || ja.Points() != 100 {
		t.Errorf("points wrong")
	}
}

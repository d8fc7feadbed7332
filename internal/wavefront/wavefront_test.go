package wavefront

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/graphalg"
	"cdagio/internal/pebble"
	"cdagio/internal/sched"
)

// wmax runs the w^max engine under a never-cancelled context.
func wmax(t *testing.T, g *cdag.Graph, candidates []cdag.VertexID) (int, cdag.VertexID) {
	t.Helper()
	w, at, err := graphalg.MaxMinWavefrontLowerBoundCtx(context.Background(), g, candidates, graphalg.WMaxOptions{})
	if err != nil {
		t.Fatalf("MaxMinWavefrontLowerBoundCtx: %v", err)
	}
	return w, at
}

func TestScheduleWavefrontsChain(t *testing.T) {
	g := gen.Chain(5)
	order := g.MustTopoOrder()
	sizes, err := ScheduleWavefronts(g, order)
	if err != nil {
		t.Fatalf("ScheduleWavefronts: %v", err)
	}
	// On a chain the wavefront is always exactly one vertex.
	for i, s := range sizes {
		if s != 1 {
			t.Errorf("wavefront[%d] = %d, want 1", i, s)
		}
	}
	max, err := MaxScheduleWavefront(g, order)
	if err != nil || max != 1 {
		t.Errorf("max wavefront = %d (%v), want 1", max, err)
	}
}

func TestScheduleWavefrontsDiamond(t *testing.T) {
	g := cdag.NewGraph("diamond", 4)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddOutput("d")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	sizes, err := ScheduleWavefronts(g, []cdag.VertexID{a, b, c, d})
	if err != nil {
		t.Fatalf("ScheduleWavefronts: %v", err)
	}
	// After firing b: a (successor c unfired) and b (successor d unfired)
	// are both live -> wavefront 2.  After firing c: b and c live -> 2.
	want := []int{1, 2, 2, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("wavefront[%d] = %d, want %d (all: %v)", i, sizes[i], want[i], sizes)
		}
	}
}

func TestScheduleWavefrontsErrors(t *testing.T) {
	g := gen.Chain(3)
	if _, err := ScheduleWavefronts(g, []cdag.VertexID{0, 1}); err == nil {
		t.Errorf("expected length error")
	}
	if _, err := ScheduleWavefronts(g, []cdag.VertexID{0, 1, 1}); err == nil {
		t.Errorf("expected duplicate error")
	}
	if _, err := ScheduleWavefronts(g, []cdag.VertexID{1, 0, 2}); err == nil {
		t.Errorf("expected dependence error")
	}
	if _, err := ScheduleWavefronts(g, []cdag.VertexID{0, 1, 99}); err == nil {
		t.Errorf("expected range error")
	}
}

func TestWavefrontIsScheduleFootprintLowerBound(t *testing.T) {
	// For any schedule, the maximum wavefront is at most the number of red
	// pebbles needed to run it plus the I/O... more directly: the Lemma 2
	// bound 2(wmax − S) must never exceed the I/O of an actual game with S
	// pebbles.
	cases := []struct {
		name string
		g    *cdag.Graph
		s    int
	}{
		{"fft16", gen.FFT(16), 6},
		{"pyramid8", gen.Pyramid(8), 4},
		{"dot8", gen.DotProduct(8), 4},
		{"jacobi", gen.Jacobi(1, 10, 4, gen.StencilStar).Graph, 5},
	}
	for _, tc := range cases {
		w, at := wmax(t, tc.g, nil)
		if w < 1 || at == cdag.InvalidVertex {
			t.Fatalf("%s: w^max = %d", tc.name, w)
		}
		lb := Lemma2Bound(w, tc.s)
		res, err := pebble.PlayScheduleCtx(context.Background(), tc.g, pebble.RBW, tc.s, sched.Topological(tc.g), pebble.Belady, false)
		if err != nil {
			t.Fatalf("%s: PlayScheduleCtx: %v", tc.name, err)
		}
		if int64(res.IO()) < lb {
			t.Errorf("%s: measured I/O %d below Lemma 2 bound %d (wmax=%d)",
				tc.name, res.IO(), lb, w)
		}
	}
}

func TestLemma2Bound(t *testing.T) {
	if Lemma2Bound(10, 4) != 12 {
		t.Errorf("Lemma2Bound(10,4) = %d, want 12", Lemma2Bound(10, 4))
	}
	if Lemma2Bound(3, 8) != 0 {
		t.Errorf("Lemma2Bound should clamp at 0")
	}
	// 2·(1 − S) wraps around int64 for S above about 4.6e18; the clamp must
	// come first or the bound turns huge and positive.
	if got := Lemma2Bound(1, 9000000000000000000); got != 0 {
		t.Errorf("Lemma2Bound(1, 9e18) = %d, want 0", got)
	}
}

func TestMinWavefrontAtReduction(t *testing.T) {
	// The CG-style reduction structure: the alpha vertex of iteration 0 in a
	// 1-D CG CDAG has a wavefront of at least 2n (vectors p and v are live).
	n := 8
	cg := gen.CG(1, n, 2)
	w := graphalg.MinWavefrontLowerBoundStrip(cg.Graph, cg.AlphaVertex[0])
	if w < 2*n {
		t.Errorf("CG alpha wavefront = %d, want >= %d", w, 2*n)
	}
	// The gamma vertex keeps at least the new residual vector live.
	wg := graphalg.MinWavefrontLowerBoundStrip(cg.Graph, cg.GammaVertex[0])
	if wg < n {
		t.Errorf("CG gamma wavefront = %d, want >= %d", wg, n)
	}
}

func TestNonDisjointBound(t *testing.T) {
	// Two sub-CDAGs with wavefronts 10 and 6, S = 4: 2(10-4) + 2(6-4) = 16.
	if got := NonDisjointBound([]int{10, 6}, 4); got != 16 {
		t.Errorf("NonDisjointBound = %d, want 16", got)
	}
	if got := NonDisjointBound(nil, 4); got != 0 {
		t.Errorf("empty NonDisjointBound = %d, want 0", got)
	}
}

func TestTopCandidates(t *testing.T) {
	g := gen.DotProduct(8)
	top := TopCandidates(g, 5)
	if len(top) != 5 {
		t.Fatalf("TopCandidates returned %d vertices", len(top))
	}
	// The highest-degree vertices should not be inputs (inputs have degree 1
	// in a dot product, multiply/add vertices have degree >= 2).
	if g.IsInput(top[0]) {
		t.Errorf("top candidate is an input vertex")
	}
	// Requesting more candidates than vertices returns all of them.
	all := TopCandidates(g, g.NumVertices()+10)
	if len(all) != g.NumVertices() {
		t.Errorf("TopCandidates overflow = %d", len(all))
	}
}

func TestWMaxCandidatesRestriction(t *testing.T) {
	// A dot product can be reduced as it goes, so its minimum wavefronts are
	// tiny; a 1-D CG iteration in contrast must keep whole vectors live.
	g := gen.DotProduct(6)
	full, _ := wmax(t, g, nil)
	restricted, _ := wmax(t, g, TopCandidates(g, 3))
	if restricted > full {
		t.Errorf("restricted WMax %d exceeds full WMax %d", restricted, full)
	}
	if full < 1 {
		t.Errorf("dot product WMax = %d, want >= 1", full)
	}
	cg := gen.CG(1, 6, 1)
	wcg, _ := wmax(t, cg.Graph, []cdag.VertexID{cg.AlphaVertex[0], cg.GammaVertex[0]})
	if wcg < 2*6 {
		t.Errorf("CG WMax = %d, want >= 12 (two live vectors)", wcg)
	}
}

// TestTopCandidatesMatchesFullSort checks the partial-selection heap against
// a full sort of all ranked vertices, over randomized DAGs and a range of k,
// including order (degree descending, ties by increasing vertex ID).
func TestTopCandidatesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := cdag.NewGraph("rank", n)
		g.AddVertices(n)
		for e := 0; e < 3*n; e++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(cdag.VertexID(u), cdag.VertexID(v))
		}
		type ranked struct {
			v      cdag.VertexID
			degree int
		}
		all := make([]ranked, 0, n)
		for _, v := range g.Vertices() {
			all = append(all, ranked{v: v, degree: g.InDegree(v) + g.OutDegree(v)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].degree != all[j].degree {
				return all[i].degree > all[j].degree
			}
			return all[i].v < all[j].v
		})
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 5} {
			got := TopCandidates(g, k)
			want := k
			if want > n {
				want = n
			}
			if len(got) != want {
				t.Fatalf("trial %d k=%d: len=%d want %d", trial, k, len(got), want)
			}
			for i := range got {
				if got[i] != all[i].v {
					t.Fatalf("trial %d k=%d: got[%d]=%d want %d", trial, k, i, got[i], all[i].v)
				}
			}
		}
	}
}

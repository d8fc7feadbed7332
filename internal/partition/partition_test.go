package partition

import (
	"context"
	"math"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/pebble"
	"cdagio/internal/sched"
)

func TestSPartitionValidate(t *testing.T) {
	g := gen.Chain(6) // 0(in) 1 2 3 4 5(out)
	good := SPartition{S: 2, Parts: []*cdag.VertexSet{
		cdag.NewVertexSetOf(6, 1, 2),
		cdag.NewVertexSetOf(6, 3, 4, 5),
	}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if good.NumParts() != 2 || good.MaxPartSize() != 3 {
		t.Errorf("summary wrong: %d parts, max %d", good.NumParts(), good.MaxPartSize())
	}

	cases := map[string]SPartition{
		"zero S": {S: 0, Parts: good.Parts},
		"contains input": {S: 2, Parts: []*cdag.VertexSet{
			cdag.NewVertexSetOf(6, 0, 1, 2), cdag.NewVertexSetOf(6, 3, 4, 5)}},
		"overlap": {S: 2, Parts: []*cdag.VertexSet{
			cdag.NewVertexSetOf(6, 1, 2, 3), cdag.NewVertexSetOf(6, 3, 4, 5)}},
		"not covering": {S: 2, Parts: []*cdag.VertexSet{
			cdag.NewVertexSetOf(6, 1, 2), cdag.NewVertexSetOf(6, 4, 5)}},
	}
	for name, p := range cases {
		if err := p.Validate(g); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestSPartitionValidateCircuitAndSizes(t *testing.T) {
	// Two vertices with edges both ways between two parts are impossible in a
	// DAG, so build the circuit across parts via a longer path:
	// 1 -> 2 -> 3 with parts {1,3} and {2}: edges 1->2 (part A to B) and
	// 2->3 (part B to A) form a circuit between the parts.
	g := gen.Chain(4)
	circ := SPartition{S: 3, Parts: []*cdag.VertexSet{
		cdag.NewVertexSetOf(4, 1, 3),
		cdag.NewVertexSetOf(4, 2),
	}}
	if err := circ.Validate(g); err == nil || !strings.Contains(err.Error(), "circuit") {
		t.Errorf("expected circuit violation, got %v", err)
	}

	// In/Out size violations: a dot product's reduction part has many inputs.
	d := gen.DotProduct(6)
	ops := cdag.NewVertexSet(d.NumVertices())
	for _, v := range d.Vertices() {
		if !d.IsInput(v) {
			ops.Add(v)
		}
	}
	tight := SPartition{S: 2, Parts: []*cdag.VertexSet{ops}}
	if err := tight.Validate(d); err == nil || !strings.Contains(err.Error(), "P3") {
		t.Errorf("expected P3 violation, got %v", err)
	}
}

func TestFromGameTrace(t *testing.T) {
	// Play a recorded game and verify the Theorem 1 construction yields a
	// valid 2S-partition whose part count is consistent with the game's I/O:
	// S·h >= q >= S·(h−1).
	for _, tc := range []struct {
		name  string
		g     *cdag.Graph
		s     int
		wantS int // the partition's S: 2S, saturated at math.MaxInt
	}{
		{"fft16", gen.FFT(16), 6, 12},
		{"pyramid6", gen.Pyramid(6), 4, 8},
		{"matmul3", gen.MatMul(3).Graph, 6, 12},
		{"fft16-huge-S", gen.FFT(16), 1 << 62, math.MaxInt},
	} {
		order := make([]cdag.VertexID, 0)
		for _, v := range tc.g.MustTopoOrder() {
			if !tc.g.IsInput(v) {
				order = append(order, v)
			}
		}
		res, err := pebble.PlayScheduleCtx(context.Background(), tc.g, pebble.RBW, tc.s, order, pebble.Belady, true)
		if err != nil {
			t.Fatalf("%s: PlayScheduleCtx: %v", tc.name, err)
		}
		p, err := FromGameTrace(tc.g, res)
		if err != nil {
			t.Fatalf("%s: FromGameTrace: %v", tc.name, err)
		}
		if p.S != tc.wantS {
			t.Errorf("%s: partition S = %d, want %d", tc.name, p.S, tc.wantS)
		}
		h := p.NumParts()
		q := res.IO()
		if !(tc.s*h >= q && q >= tc.s*(h-1)) {
			t.Errorf("%s: Theorem 1 relation violated: S=%d h=%d q=%d", tc.name, tc.s, h, q)
		}
	}
}

func TestFromGameTraceNoTrace(t *testing.T) {
	g := gen.Chain(4)
	res, err := pebble.PlayScheduleCtx(context.Background(), g, pebble.RBW, 2, sched.Topological(g), pebble.Belady, false)
	if err != nil {
		t.Fatalf("PlayScheduleCtx: %v", err)
	}
	if _, err := FromGameTrace(g, res); err == nil {
		t.Errorf("expected error for missing trace")
	}
}

func TestLemmaBounds(t *testing.T) {
	for _, tc := range []struct {
		s, h2S int
		want   int64
	}{
		{4, 5, 16},
		{4, 0, 0},
		{1 << 62, 2, 1 << 62},
		{1 << 62, 6, math.MaxInt64}, // 5·2^62 does not fit
		{1 << 62, 5, math.MaxInt64}, // 4·2^62 wrapped to 0
	} {
		if got := Lemma1Bound(tc.s, tc.h2S); got != tc.want {
			t.Errorf("Lemma1Bound(%d, %d) = %d, want %d", tc.s, tc.h2S, got, tc.want)
		}
	}
	for _, tc := range []struct {
		s, ops, u2S int
		want        int64
	}{
		{4, 100, 10, 36},
		{4, 5, 10, 0},  // fewer operations than U(2S)
		{4, 100, 0, 0}, // no admissible vertex set
		{0, 100, 10, 0},
		{-4, 100, 10, 0},
		{1 << 62, 2, 1, 1 << 62},
		{1 << 62, 6, 1, math.MaxInt64}, // 5·2^62 wrapped to 2^62
		{1 << 62, 5, 1, math.MaxInt64}, // 4·2^62 wrapped to 0
		{math.MaxInt, math.MaxInt, 1, math.MaxInt64},
	} {
		if got := Corollary1Bound(tc.s, tc.ops, tc.u2S); got != tc.want {
			t.Errorf("Corollary1Bound(%d, %d, %d) = %d, want %d", tc.s, tc.ops, tc.u2S, got, tc.want)
		}
	}
}

func TestMaxVertexSetSizeExact(t *testing.T) {
	// On a chain every subset has |In| <= 1 and |Out| <= 1 provided it is a
	// contiguous run; the maximum admissible set is all non-input vertices.
	g := gen.Chain(8)
	u, err := MaxVertexSetSizeExact(g, 2, 0)
	if err != nil {
		t.Fatalf("MaxVertexSetSizeExact: %v", err)
	}
	if u != 7 {
		t.Errorf("chain U(2) = %d, want 7", u)
	}
	// On the FFT(4) butterfly with limit 2 the largest admissible set is
	// small; with limit 8 everything fits.
	f := gen.FFT(4)
	u2, err := MaxVertexSetSizeExact(f, 2, 0)
	if err != nil {
		t.Fatalf("MaxVertexSetSizeExact: %v", err)
	}
	if u2 >= f.NumOperations() {
		t.Errorf("FFT U(2) = %d should be smaller than all %d operations", u2, f.NumOperations())
	}
	u3, err := MaxVertexSetSizeExact(f, 8, 0)
	if err != nil {
		t.Fatalf("MaxVertexSetSizeExact: %v", err)
	}
	if u3 != f.NumOperations() {
		t.Errorf("FFT U(8) = %d, want %d", u3, f.NumOperations())
	}
	// Monotonicity in the limit.
	if u2 > u3 {
		t.Errorf("U not monotone: %d > %d", u2, u3)
	}
	// Too-large graphs are rejected.
	if _, err := MaxVertexSetSizeExact(gen.FFT(16), 4, 0); err == nil {
		t.Errorf("expected size-limit error")
	}
	// Graph with no operations.
	empty := cdag.NewGraph("empty", 1)
	empty.AddInput("x")
	if u4, err := MaxVertexSetSizeExact(empty, 4, 0); err != nil || u4 != 0 {
		t.Errorf("empty graph U = %d (%v)", u4, err)
	}
}

func TestCorollary1AgainstOptimal(t *testing.T) {
	// The Corollary 1 lower bound with the exact U(2S) must never exceed the
	// exact optimal I/O found by exhaustive search.
	cases := []struct {
		name string
		g    *cdag.Graph
		s    int
	}{
		{"fft4", gen.FFT(4), 3},
		{"pyramid4", gen.Pyramid(4), 3},
		{"dot4", gen.DotProduct(4), 3},
	}
	for _, tc := range cases {
		u, err := MaxVertexSetSizeExact(tc.g, 2*tc.s, 0)
		if err != nil {
			t.Fatalf("%s: U: %v", tc.name, err)
		}
		lb := Corollary1Bound(tc.s, tc.g.NumOperations(), u)
		opt, err := pebble.OptimalIOCtx(context.Background(), tc.g, pebble.RBW, tc.s, pebble.OptimalOptions{})
		if err != nil {
			t.Fatalf("%s: OptimalIO: %v", tc.name, err)
		}
		if int64(opt) < lb {
			t.Errorf("%s: optimal I/O %d below Corollary 1 bound %d", tc.name, opt, lb)
		}
	}
}

func TestGreedyPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *cdag.Graph
		s    int
	}{
		{"chain", gen.Chain(12), 2},
		{"fft8", gen.FFT(8), 4},
		{"matmul3", gen.MatMul(3).Graph, 4},
		{"jacobi", gen.Jacobi(1, 8, 3, gen.StencilStar).Graph, 4},
	} {
		p, err := GreedyPartition(tc.g, tc.s)
		if err != nil {
			t.Fatalf("%s: GreedyPartition: %v", tc.name, err)
		}
		if err := p.Validate(tc.g); err != nil {
			t.Errorf("%s: greedy partition invalid: %v", tc.name, err)
		}
	}
	// Failure when S is too small for a single vertex's in-degree.
	if _, err := GreedyPartition(gen.DotProduct(8), 1); err == nil {
		t.Errorf("expected failure for S=1 on a dot product")
	}
	if _, err := GreedyPartition(gen.Chain(3), 0); err == nil {
		t.Errorf("expected failure for S=0")
	}
}

package pebble

import (
	"testing"

	"cdagio/internal/gen"
)

// TestPlayScheduleGolden pins the loads/stores of topological playback under
// both eviction policies to the numbers the original map-and-bitmap player
// produced, so the allocation-lean rewrites (CSR use lists, epoch-stamped
// pins, the heap-ordered red set) can never silently change eviction
// decisions.
func TestPlayScheduleGolden(t *testing.T) {
	cases := []struct {
		name          string
		s             int
		policy        EvictionPolicy
		loads, stores int
	}{
		{"matmul", 24, Belady, 328, 292},
		{"jacobi", 16, Belady, 380, 256},
		{"cg", 20, Belady, 537, 269},
		{"fft", 8, Belady, 46, 46},
		{"dot", 4, Belady, 40, 17},
		{"matmul", 24, LRU, 432, 396},
		{"jacobi", 16, LRU, 589, 256},
		{"cg", 20, LRU, 719, 342},
		{"fft", 8, LRU, 64, 64},
		{"dot", 4, LRU, 43, 20},
	}
	for _, tc := range cases {
		g := gen.MatMul(6).Graph
		switch tc.name {
		case "jacobi":
			g = gen.Jacobi(2, 8, 4, gen.StencilBox).Graph
		case "cg":
			g = gen.CG(2, 5, 2).Graph
		case "fft":
			g = gen.FFT(16)
		case "dot":
			g = gen.DotProduct(12)
		}
		res, err := playTopological(g, RBW, tc.s, tc.policy)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.name, tc.policy, err)
		}
		if res.Loads != tc.loads || res.Stores != tc.stores {
			t.Errorf("%s/%v: loads=%d stores=%d, original player produced loads=%d stores=%d",
				tc.name, tc.policy, res.Loads, res.Stores, tc.loads, tc.stores)
		}
	}
}

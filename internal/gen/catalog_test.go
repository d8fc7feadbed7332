package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cdagio/internal/cdag"
)

// TestKeyMatchesRecorded pins Key to the strings the daemon's spec keys
// rendered before the catalog existed: one spec per kind, plus upper-case
// kinds and stencils, fields the kind does not consume and an unknown kind.
// The keys feed graph IDs, journal keys and cdagx cell keys, so a change here
// splits every cache built on them.
func TestKeyMatchesRecorded(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "binomial", K: 4}, "gen/binomial/k=4"},
		{Spec{Kind: "cg", Dim: 2, N: 3, Iterations: 2}, "gen/cg/dim=2,iter=2,n=3"},
		{Spec{Kind: "chain", N: 9}, "gen/chain/n=9"},
		{Spec{Kind: "chains", K: 3, N: 4}, "gen/chains/k=3,n=4"},
		{Spec{Kind: "composite", N: 3}, "gen/composite/n=3"},
		{Spec{Kind: "dot", N: 9}, "gen/dot/n=9"},
		{Spec{Kind: "fft", N: 16}, "gen/fft/n=16"},
		{Spec{Kind: "gmres", Dim: 2, N: 3, Iterations: 2}, "gen/gmres/dim=2,iter=2,n=3"},
		{Spec{Kind: "heat", N: 5, Steps: 3}, "gen/heat/n=5,steps=3"},
		{Spec{Kind: "jacobi", Dim: 2, N: 4, Steps: 2}, "gen/jacobi/dim=2,n=4,steps=2,stencil=star"},
		{Spec{Kind: "matmul", N: 4}, "gen/matmul/n=4"},
		{Spec{Kind: "outer", N: 5}, "gen/outer/n=5"},
		{Spec{Kind: "pyramid", H: 5}, "gen/pyramid/h=5"},
		{Spec{Kind: "saxpy", N: 9}, "gen/saxpy/n=9"},
		{Spec{Kind: "tree", N: 9}, "gen/tree/n=9"},
		{Spec{Kind: "Chain", N: 8, K: 3, H: 2, Dim: 1, Steps: 4, Iterations: 5, Stencil: "box"}, "gen/chain/n=8"},
		{Spec{Kind: "FFT", N: 64, Steps: 2}, "gen/fft/n=64"},
		{Spec{Kind: "Jacobi", N: 5, K: 1, Dim: 3, Steps: 2, Iterations: 7, Stencil: "BOX"}, "gen/jacobi/dim=3,n=5,steps=2,stencil=box"},
		{Spec{Kind: "jacobi", N: 6, Dim: 1, Steps: 3, Stencil: "Star"}, "gen/jacobi/dim=1,n=6,steps=3,stencil=star"},
		{Spec{Kind: "GMRES", N: 8, Dim: 1, Steps: 9, Iterations: 3, Stencil: "box"}, "gen/gmres/dim=1,iter=3,n=8"},
		{Spec{Kind: "binomial", N: 7, K: 5, H: 1}, "gen/binomial/k=5"},
		{Spec{Kind: "pyramid", N: 3, K: 2, H: 6}, "gen/pyramid/h=6"},
		{Spec{Kind: "quicksort", N: 4}, "gen/quicksort/"},
	} {
		if got := Key(&tc.spec); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

// estimateSamples holds small specs of every catalog kind.
var estimateSamples = map[string][]Spec{
	"binomial":  {{Kind: "binomial", K: 4}},
	"cg":        {{Kind: "cg", Dim: 2, N: 3, Iterations: 2}},
	"chain":     {{Kind: "chain", N: 9}},
	"chains":    {{Kind: "chains", K: 3, N: 4}},
	"composite": {{Kind: "composite", N: 3}},
	"dot":       {{Kind: "dot", N: 9}},
	"fft":       {{Kind: "fft", N: 16}},
	"gmres":     {{Kind: "gmres", Dim: 2, N: 3, Iterations: 2}},
	"heat":      {{Kind: "heat", N: 5, Steps: 3}},
	"jacobi": {
		{Kind: "jacobi", Dim: 2, N: 4, Steps: 2},
		{Kind: "jacobi", Dim: 2, N: 4, Steps: 2, Stencil: "box"},
	},
	"matmul":  {{Kind: "matmul", N: 4}},
	"outer":   {{Kind: "outer", N: 5}},
	"pyramid": {{Kind: "pyramid", H: 5}},
	"saxpy":   {{Kind: "saxpy", N: 9}},
	"tree":    {{Kind: "tree", N: 9}},
}

// TestEstimateIsUpperBound builds a small instance of every catalog kind and
// checks that the pre-build size estimate dominates the real counts: the
// estimate's only job is to be safely conservative, so it must never be
// smaller than what the generator builds (or admission would wrongly reject
// graphs that fit).  A kind without a sample fails the test.
func TestEstimateIsUpperBound(t *testing.T) {
	for _, kind := range Kinds() {
		specs := estimateSamples[kind]
		if len(specs) == 0 {
			t.Errorf("kind %q has no sample spec", kind)
		}
		for i := range specs {
			s := &specs[i]
			b, err := Build(s)
			if err != nil {
				t.Fatalf("%s: Build: %v", Key(s), err)
			}
			v, e := Estimate(s)
			if int64(b.Graph.NumVertices()) > v || int64(b.Graph.NumEdges()) > e {
				t.Errorf("%s: built %d vertices / %d edges but estimated only %d / %d",
					Key(s), b.Graph.NumVertices(), b.Graph.NumEdges(), v, e)
			}
		}
	}
}

// TestEstimateHugeParameters estimates specs whose exponents and sizes are
// near the int range: each must saturate at once, neither looping through
// the exponent nor wrapping around to a small or negative count.
func TestEstimateHugeParameters(t *testing.T) {
	for _, s := range []Spec{
		{Kind: "jacobi", Dim: math.MaxInt, N: 2, Steps: 1},
		{Kind: "jacobi", Dim: math.MaxInt, N: 1, Steps: 1, Stencil: "box"},
		{Kind: "cg", Dim: math.MaxInt, N: 1, Iterations: 1},
		{Kind: "gmres", Dim: math.MaxInt, N: 3, Iterations: 1},
		{Kind: "pyramid", H: math.MaxInt},
		{Kind: "pyramid", H: math.MaxInt - 1},
		{Kind: "heat", N: math.MaxInt, Steps: math.MaxInt},
	} {
		if _, e := Estimate(&s); e != satCap {
			t.Errorf("Estimate(%+v) edges = %d, want the cap %d", s, e, satCap)
		}
	}
}

// TestEstimateZeroExactlyOutOfDomain probes every kind on a grid of small,
// zero and negative parameters (no kind reads both k and h, or both steps
// and iterations, so each pair shares a value) and requires an estimate of
// (0, 0) exactly for the specs Build rejects.  A nonzero estimate for a
// rejected spec lets spec compilers and admission checks accept it, and a
// zero one for a buildable spec rejects it.
func TestEstimateZeroExactlyOutOfDomain(t *testing.T) {
	small := []int{-1, 0, 1, 2}
	for _, kind := range Kinds() {
		rejected := 0
		for _, n := range []int{-3, -1, 0, 1, 2, 3, 4, 6, 8} {
			for _, kh := range small {
				for _, dim := range small {
					for _, steps := range small {
						for _, stencil := range []string{"", "box", "bogus"} {
							s := Spec{Kind: kind, N: n, K: kh, H: kh, Dim: dim, Steps: steps, Iterations: steps, Stencil: stencil}
							_, err := Build(&s)
							v, e := Estimate(&s)
							switch {
							case err != nil && (v != 0 || e != 0):
								t.Errorf("%s: Build fails (%v) but the estimate is %d / %d", Key(&s), err, v, e)
							case err == nil && v <= 0:
								t.Errorf("%s: Build succeeds but the estimate is %d / %d", Key(&s), v, e)
							}
							if err != nil {
								rejected++
							}
						}
					}
				}
			}
		}
		if rejected == 0 {
			t.Errorf("%s: no probe spec is out of domain", kind)
		}
	}
}

// FuzzSpec builds arbitrary specs of every kind whose estimate is at most
// 4,096 vertices and 16,384 edges.  No count may be negative, and a spec
// Build rejects must estimate as (0, 0).  Build must never panic; a built
// graph must be non-empty, within its estimate and a valid RBW CDAG; and
// zeroing a field that leaves the key unchanged must leave the estimate and
// the built graph unchanged, so equal keys (and so equal graph IDs) mean
// equal graphs.
func FuzzSpec(f *testing.F) {
	kinds := Kinds()
	for i, kind := range kinds {
		for _, s := range estimateSamples[kind] {
			f.Add(uint8(i), false, s.N, s.K, s.H, s.Dim, s.Steps, s.Iterations, s.Stencil)
		}
	}
	f.Add(uint8(0), true, 1, 0, 0, 1, 1, 1, "bogus")
	zeroers := []func(s *Spec){
		func(s *Spec) { s.N = 0 },
		func(s *Spec) { s.K = 0 },
		func(s *Spec) { s.H = 0 },
		func(s *Spec) { s.Dim = 0 },
		func(s *Spec) { s.Steps = 0 },
		func(s *Spec) { s.Iterations = 0 },
		func(s *Spec) { s.Stencil = "" },
	}
	f.Fuzz(func(t *testing.T, ki uint8, upper bool, n, k, h, dim, steps, iter int, stencil string) {
		s := Spec{Kind: kinds[int(ki)%len(kinds)], N: n, K: k, H: h, Dim: dim,
			Steps: steps, Iterations: iter, Stencil: stencil}
		if upper {
			s.Kind = strings.ToUpper(s.Kind)
		}
		v, e := Estimate(&s)
		if v < 0 || e < 0 {
			t.Fatalf("%+v: negative estimate %d / %d", s, v, e)
		}
		if v > 4096 || e > 16384 {
			t.Skip()
		}
		b, err := Build(&s)
		if err != nil {
			if v != 0 || e != 0 {
				t.Fatalf("%+v: Build fails (%v) but the estimate is %d / %d", s, err, v, e)
			}
			return
		}
		g := b.Graph
		if nv := int64(g.NumVertices()); nv <= 0 || nv > v || int64(g.NumEdges()) > e {
			t.Fatalf("%+v: built %d vertices / %d edges, estimated %d / %d", s, g.NumVertices(), g.NumEdges(), v, e)
		}
		if err := g.Validate(cdag.ValidateRBW); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want := marshal(t, g)
		for _, zero := range zeroers {
			z := s
			zero(&z)
			if Key(&z) != Key(&s) {
				continue
			}
			if zv, ze := Estimate(&z); zv != v || ze != e {
				t.Fatalf("%+v: estimate %d / %d, but %d / %d with a field the key ignores zeroed", s, v, e, zv, ze)
			}
			zb, err := Build(&z)
			if err != nil {
				t.Fatalf("%+v built, but %+v with the same key fails: %v", s, z, err)
			}
			if !bytes.Equal(marshal(t, zb.Graph), want) {
				t.Fatalf("%+v and %+v share key %s but build different graphs", s, z, Key(&s))
			}
		}
	})
}

func marshal(t *testing.T, g *cdag.Graph) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

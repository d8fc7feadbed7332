package gen

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"cdagio/internal/cdag"
)

// Spec names one of the catalog's CDAG families and its size parameters.
// Unused parameters for a kind must be zero; Key includes only the
// parameters the kind consumes, so equivalent specs share a key.
type Spec struct {
	Kind       string `json:"kind"`
	N          int    `json:"n,omitempty"`
	K          int    `json:"k,omitempty"`
	H          int    `json:"h,omitempty"`
	Dim        int    `json:"dim,omitempty"`
	Steps      int    `json:"steps,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Stencil    string `json:"stencil,omitempty"` // "star" (default) or "box"
}

// Built is a constructed catalog graph.  The kinds whose consumers need
// generator structure also carry their typed result: grid layers for skewed
// schedules and block partitions, operand grids for blocked matmul, and
// iteration sets for Krylov growth curves.
type Built struct {
	Graph  *cdag.Graph
	Jacobi *JacobiResult
	MatMul *MatMulResult
	CG     *CGResult
	GMRES  *GMRESResult
}

// params is a spec as the size estimates read it: the integer parameters
// widened to int64 and the stencil name.
type params struct {
	n, k, h, dim, steps, iter int64
	stencil                   string
}

// entry is one catalog kind: the rendering of the parameters its key
// consumes, its builder, its generator's parameter domain (the builder
// panics exactly outside it) and its saturating size estimate, which is
// only consulted inside the domain.
type entry struct {
	key      func(s *Spec) string
	build    func(s *Spec) (Built, error)
	domain   func(p params) bool
	estimate func(p params) (v, e int64)
}

// keyN keys the kinds sized by n alone.
func keyN(s *Spec) string { return fmt.Sprintf("n=%d", s.N) }

// nPositive is the domain of the kinds that need n >= 1 and nothing else.
func nPositive(p params) bool { return p.n >= 1 }

// gridDomain is the domain of the grid kinds: a grid of dim >= 1 axes of
// n >= 1 points, run for t >= 1 steps or iterations.
func gridDomain(p params, t int64) bool { return p.dim >= 1 && p.n >= 1 && t >= 1 }

// graph is the build result of a kind without a typed result.
func graph(g *cdag.Graph) (Built, error) { return Built{Graph: g}, nil }

// catalog holds every generator kind, keyed by its lower-case name.
var catalog = map[string]entry{
	"binomial": {
		key:    func(s *Spec) string { return fmt.Sprintf("k=%d", s.K) },
		build:  func(s *Spec) (Built, error) { return graph(BinomialTree(s.K)) },
		domain: func(p params) bool { return p.k >= 0 && p.k <= 20 },
		estimate: func(p params) (int64, int64) {
			leaves := int64(1) << p.k
			return satMul(leaves, p.k+1), satMul(p.k, satMul(2, leaves))
		},
	},
	"cg": {
		key: func(s *Spec) string { return fmt.Sprintf("dim=%d,iter=%d,n=%d", s.Dim, s.Iterations, s.N) },
		build: func(s *Spec) (Built, error) {
			r := CG(s.Dim, s.N, s.Iterations)
			return Built{Graph: r.Graph, CG: r}, nil
		},
		domain: func(p params) bool { return gridDomain(p, p.iter) },
		estimate: func(p params) (int64, int64) {
			np := satPow(p.n, p.dim)
			v := satAdd(satMul(3, np), satMul(p.iter, satAdd(satMul(10, np), 2)))
			return v, satMul(p.iter, satMul(np, satAdd(20, satMul(2, p.dim))))
		},
	},
	"chain": {
		key:      keyN,
		build:    func(s *Spec) (Built, error) { return graph(Chain(s.N)) },
		domain:   nPositive,
		estimate: func(p params) (int64, int64) { return p.n, p.n },
	},
	"chains": {
		key:      func(s *Spec) string { return fmt.Sprintf("k=%d,n=%d", s.K, s.N) },
		build:    func(s *Spec) (Built, error) { return graph(IndependentChains(s.K, s.N)) },
		domain:   func(p params) bool { return p.k >= 1 && p.n >= 1 },
		estimate: func(p params) (int64, int64) { return satMul(p.k, p.n), satMul(p.k, p.n) },
	},
	"composite": {
		key:    keyN,
		build:  func(s *Spec) (Built, error) { return graph(Composite(s.N).Graph) },
		domain: nPositive,
		estimate: func(p params) (int64, int64) {
			n3 := satPow(p.n, 3)
			v := satAdd(satMul(4, p.n), satAdd(satMul(3, satMul(p.n, p.n)), satMul(2, n3)))
			return v, satAdd(satMul(4, satMul(p.n, p.n)), satMul(4, n3))
		},
	},
	"dot": {
		key:      keyN,
		build:    func(s *Spec) (Built, error) { return graph(DotProduct(s.N)) },
		domain:   nPositive,
		estimate: func(p params) (int64, int64) { return satMul(4, p.n), satMul(4, p.n) },
	},
	"fft": {
		key:    keyN,
		build:  func(s *Spec) (Built, error) { return graph(FFT(s.N)) },
		domain: func(p params) bool { return p.n >= 2 && p.n&(p.n-1) == 0 },
		estimate: func(p params) (int64, int64) {
			stages := int64(0)
			for s := p.n; s > 1; s >>= 1 {
				stages++
			}
			return satMul(p.n, stages+1), satMul(2, satMul(p.n, stages))
		},
	},
	"gmres": {
		key: func(s *Spec) string { return fmt.Sprintf("dim=%d,iter=%d,n=%d", s.Dim, s.Iterations, s.N) },
		build: func(s *Spec) (Built, error) {
			r := GMRES(s.Dim, s.N, s.Iterations)
			return Built{Graph: r.Graph, GMRES: r}, nil
		},
		domain: func(p params) bool { return gridDomain(p, p.iter) },
		estimate: func(p params) (int64, int64) {
			np := satPow(p.n, p.dim)
			m2 := satMul(p.iter, p.iter)
			v := satMul(np, satAdd(satAdd(m2, satMul(6, p.iter)), 1))
			return v, satMul(np, satAdd(satMul(p.iter, satAdd(8, satMul(2, p.dim))), satMul(3, satMul(p.iter, satAdd(p.iter, 1)))))
		},
	},
	"heat": {
		key:    func(s *Spec) string { return fmt.Sprintf("n=%d,steps=%d", s.N, s.Steps) },
		build:  func(s *Spec) (Built, error) { return graph(HeatEquation1D(s.N, s.Steps).Graph) },
		domain: func(p params) bool { return p.n >= 2 && p.steps >= 1 },
		estimate: func(p params) (int64, int64) {
			return satMul(p.n, satAdd(satMul(3, p.steps), 1)), satMul(p.steps, satMul(7, p.n))
		},
	},
	"jacobi": {
		key: func(s *Spec) string {
			st := strings.ToLower(s.Stencil)
			if st == "" {
				st = "star"
			}
			return fmt.Sprintf("dim=%d,n=%d,steps=%d,stencil=%s", s.Dim, s.N, s.Steps, st)
		},
		build: func(s *Spec) (Built, error) {
			kind, err := stencilKind(s.Stencil)
			if err != nil {
				return Built{}, err
			}
			r := Jacobi(s.Dim, s.N, s.Steps, kind)
			return Built{Graph: r.Graph, Jacobi: r}, nil
		},
		domain: func(p params) bool {
			_, err := stencilKind(p.stencil)
			return err == nil && gridDomain(p, p.steps)
		},
		estimate: func(p params) (int64, int64) {
			kind, _ := stencilKind(p.stencil)
			nbr := satAdd(satMul(2, p.dim), 1)
			if kind == StencilBox {
				nbr = satPow(3, p.dim)
			}
			np := satPow(p.n, p.dim)
			return satMul(np, satAdd(p.steps, 1)), satMul(p.steps, satMul(np, nbr))
		},
	},
	"matmul": {
		key:    keyN,
		build:  func(s *Spec) (Built, error) { r := MatMul(s.N); return Built{Graph: r.Graph, MatMul: r}, nil },
		domain: nPositive,
		estimate: func(p params) (int64, int64) {
			n3 := satPow(p.n, 3)
			return satAdd(satMul(2, satMul(p.n, p.n)), satMul(2, n3)), satMul(4, n3)
		},
	},
	"outer": {
		key:    keyN,
		build:  func(s *Spec) (Built, error) { return graph(OuterProduct(s.N)) },
		domain: nPositive,
		estimate: func(p params) (int64, int64) {
			return satAdd(satMul(2, p.n), satMul(p.n, p.n)), satMul(2, satMul(p.n, p.n))
		},
	},
	"pyramid": {
		key:    func(s *Spec) string { return fmt.Sprintf("h=%d", s.H) },
		build:  func(s *Spec) (Built, error) { return graph(Pyramid(s.H)) },
		domain: func(p params) bool { return p.h >= 0 },
		estimate: func(p params) (int64, int64) {
			rows := satAdd(p.h, 1)
			return satMul(rows, satAdd(p.h, 2)) / 2, satMul(p.h, rows)
		},
	},
	"saxpy": {
		key:      keyN,
		build:    func(s *Spec) (Built, error) { return graph(Saxpy(s.N)) },
		domain:   nPositive,
		estimate: func(p params) (int64, int64) { return satAdd(satMul(4, p.n), 1), satMul(4, p.n) },
	},
	"tree": {
		key:      keyN,
		build:    func(s *Spec) (Built, error) { return graph(ReductionTree(s.N)) },
		domain:   nPositive,
		estimate: func(p params) (int64, int64) { return satMul(2, p.n), satMul(2, p.n) },
	},
}

// stencilKind parses a jacobi stencil name, case-insensitively; the empty
// name is the star stencil.
func stencilKind(name string) (StencilKind, error) {
	switch strings.ToLower(name) {
	case "", "star":
		return StencilStar, nil
	case "box":
		return StencilBox, nil
	}
	return 0, fmt.Errorf("generator jacobi: unknown stencil %q (want star or box)", name)
}

// Kinds returns the catalog's kind names, sorted.
func Kinds() []string { return slices.Sorted(maps.Keys(catalog)) }

// Build constructs the spec's graph; the kind is matched case-insensitively.
// The generators enforce their parameter domains by panicking, which is fine
// for code but not for request data, so Build turns such a panic into an
// error.
func Build(s *Spec) (b Built, err error) {
	c, ok := catalog[strings.ToLower(s.Kind)]
	if !ok {
		return Built{}, fmt.Errorf("unknown generator kind %q", s.Kind)
	}
	defer func() {
		if r := recover(); r != nil {
			b, err = Built{}, fmt.Errorf("generator %q: %v", s.Kind, r)
		}
	}()
	return c.build(s)
}

// Key renders the canonical identity string of a spec: the lower-cased kind
// plus exactly the parameters that kind consumes, so {"kind":"chain","n":8}
// and {"kind":"Chain","n":8,"k":0} share a key.  An unknown kind keys with
// no parameters.
func Key(s *Spec) string {
	kind := strings.ToLower(s.Kind)
	key := "gen/" + kind + "/"
	if c, ok := catalog[kind]; ok {
		key += c.key(s)
	}
	return key
}

// Estimate returns saturating upper bounds on the vertex and edge counts the
// spec would build, without building anything.  Unknown kinds and
// out-of-domain parameters — exactly the specs Build rejects — estimate as
// (0, 0), so the only job here is to make sure a healthy spec whose size is
// hostile never reaches an allocation.
func Estimate(s *Spec) (v, e int64) {
	c, ok := catalog[strings.ToLower(s.Kind)]
	if !ok {
		return 0, 0
	}
	p := params{int64(s.N), int64(s.K), int64(s.H), int64(s.Dim),
		int64(s.Steps), int64(s.Iterations), s.Stencil}
	if !c.domain(p) {
		return 0, 0
	}
	return c.estimate(p)
}

// satCap bounds every value in the size estimates: large enough that no
// admissible graph is anywhere near it, small enough that the downstream
// footprint arithmetic (per-vertex byte costs times a solver count) cannot
// overflow int64.
const satCap = int64(1) << 40

// satMul and satAdd are the saturating arithmetic of the size estimates:
// negative operands clamp to zero, and anything at or beyond satCap stays
// pinned there.
func satMul(a, b int64) int64 {
	a, b = max(a, 0), max(b, 0)
	if a > 0 && b > satCap/a {
		return satCap
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	a, b = min(max(a, 0), satCap), min(max(b, 0), satCap)
	return min(a+b, satCap)
}

// satPow returns base^exp, saturating.  It stops once the power can no
// longer change (0, 1 or satCap), so a huge exponent costs at most about
// forty multiplications.
func satPow(base, exp int64) int64 {
	p := int64(1)
	for i := int64(0); i < exp && base != 1 && p != 0 && p != satCap; i++ {
		p = satMul(p, base)
	}
	return p
}

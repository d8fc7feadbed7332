package graphalg

import (
	"math/rand"
	"sort"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// dominates reports whether removing dom from g disconnects every path from a
// tagged input to the target set, checked by a plain forward traversal.
func dominates(g *cdag.Graph, dom []cdag.VertexID, target *cdag.VertexSet) bool {
	removed := cdag.NewVertexSet(g.NumVertices())
	removed.AddAll(dom)
	seen := cdag.NewVertexSet(g.NumVertices())
	var stack []cdag.VertexID
	for _, in := range g.Inputs() {
		if !removed.Contains(in) {
			stack = append(stack, in)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen.Add(u) {
			continue
		}
		if target.Contains(u) {
			return false
		}
		for _, w := range g.Succ(u) {
			if !removed.Contains(w) && !seen.Contains(w) {
				stack = append(stack, w)
			}
		}
	}
	return true
}

// TestMinDominatorStripEquivalenceRandomDAGs pins the strip-local dominator
// engine against the historical full-network route on randomized DAGs: the
// bound values must be bit-identical, and the returned witness must be a
// genuine dominator of matching size, sorted by vertex ID.
func TestMinDominatorStripEquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(40)
		g := randomDAG(rng, n, 2*n)
		for v := 0; v < n; v++ {
			if g.InDegree(cdag.VertexID(v)) == 0 {
				g.TagInput(cdag.VertexID(v))
			}
		}
		target := cdag.NewVertexSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				target.Add(cdag.VertexID(v))
			}
		}
		if target.Len() == 0 {
			target.Add(cdag.VertexID(n - 1))
		}
		wantK, wantDom := MinDominatorSizeFull(g, target)
		gotK, dom := MinDominatorSize(g, target)
		if gotK != wantK {
			t.Fatalf("trial %d: strip dominator size %d, full-network %d", trial, gotK, wantK)
		}
		if len(dom) != gotK {
			t.Fatalf("trial %d: witness has %d vertices, bound is %d", trial, len(dom), gotK)
		}
		if !sort.SliceIsSorted(dom, func(i, j int) bool { return dom[i] < dom[j] }) {
			t.Fatalf("trial %d: witness not sorted: %v", trial, dom)
		}
		if !dominates(g, dom, target) {
			t.Fatalf("trial %d: witness %v does not dominate %v", trial, dom, target.Elements())
		}
		if !dominates(g, wantDom, target) {
			t.Fatalf("trial %d: full-network witness %v does not dominate", trial, wantDom)
		}
	}
}

// TestMinDominatorStripPooledReuse drives repeated dominator queries with
// alternating targets through one pooled solver and a shared SolverPool,
// checking every answer against the full-network reference: the strip remap
// and co-reachability stamps must never leak between queries.
func TestMinDominatorStripPooledReuse(t *testing.T) {
	g := gen.MatMul(4).Graph
	pool := NewSolverPool(g)
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	for trial := 0; trial < 30; trial++ {
		target := cdag.NewVertexSet(n)
		if trial%3 == 0 {
			target.AddAll(g.Outputs())
		} else {
			for i := 0; i < 1+rng.Intn(6); i++ {
				target.Add(cdag.VertexID(rng.Intn(n)))
			}
		}
		wantK, _ := MinDominatorSizeFull(g, target)
		gotK, dom := pool.MinDominatorSize(target)
		if gotK != wantK {
			t.Fatalf("trial %d: pooled strip size %d, full-network %d", trial, gotK, wantK)
		}
		if len(dom) != gotK || !dominates(g, dom, target) {
			t.Fatalf("trial %d: invalid witness %v for size %d", trial, dom, gotK)
		}
	}
}

// TestMinDominatorStripDegenerate covers the corner cases the strip builder
// short-circuits: empty targets, untagged graphs, targets unreachable from
// every input, and input vertices that are themselves targets.
func TestMinDominatorStripDegenerate(t *testing.T) {
	// Two disjoint chains, only one rooted at a tagged input.
	g := cdag.NewGraph("deg", 6)
	g.AddVertices(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.TagInput(0)

	if k, dom := MinDominatorSize(g, cdag.NewVertexSet(6)); k != 0 || dom != nil {
		t.Fatalf("empty target: (%d, %v), want (0, nil)", k, dom)
	}
	// Target on the chain with no tagged input: no path needs covering.
	if k, dom := MinDominatorSize(g, cdag.NewVertexSetOf(6, 5)); k != 0 || dom != nil {
		t.Fatalf("unreachable target: (%d, %v), want (0, nil)", k, dom)
	}
	// Target on the rooted chain: one vertex suffices.
	if k, _ := MinDominatorSize(g, cdag.NewVertexSetOf(6, 2)); k != 1 {
		t.Fatalf("chain target: size %d, want 1", k)
	}
	// An input that is itself the target must be its own dominator.
	if k, dom := MinDominatorSize(g, cdag.NewVertexSetOf(6, 0)); k != 1 || len(dom) != 1 || dom[0] != 0 {
		t.Fatalf("input target: (%d, %v), want (1, [0])", k, dom)
	}
}

// MinDominatorSizeFull is the full-network route to the dominator bound: a
// MinVertexCut from the inputs to the target on the cached static
// vertex-split network.  It is the reference the strip-local
// MinDominatorSize is tested against; the bound values are always identical.
func MinDominatorSizeFull(g *cdag.Graph, target *cdag.VertexSet) (int, []cdag.VertexID) {
	inputs := g.Inputs()
	if len(inputs) == 0 || target.Len() == 0 {
		return 0, nil
	}
	k, cut := MinVertexCut(g, inputs, target.Elements(), CutOptions{})
	if k < 0 {
		return 0, nil
	}
	return k, cut
}

package prbw

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// equivScenarios builds the scenario matrix the optimized player is checked
// on: every workload family crossed with two-level, three-level shared-cache
// and multi-node topologies, under block, block-cyclic and owner-computes
// assignments.
func equivScenarios() []struct {
	name string
	g    *cdag.Graph
	topo Topology
	asg  Assignment
} {
	jr := gen.Jacobi(1, 48, 6, gen.StencilStar)
	jacobiOwner := make([]int, jr.Graph.NumVertices())
	for v := range jacobiOwner {
		jacobiOwner[v] = v % 4
	}
	mm := gen.MatMul(8).Graph
	cg := gen.CG(2, 6, 2).Graph
	gm := gen.GMRES(2, 5, 3).Graph
	fft := gen.FFT(16)
	j2 := gen.Jacobi(2, 10, 4, gen.StencilBox).Graph
	return []struct {
		name string
		g    *cdag.Graph
		topo Topology
		asg  Assignment
	}{
		{"jacobi1d-dist", jr.Graph, Distributed(2, 2, 8, 96, 1<<18), OwnerCompute(jr.Graph, jacobiOwner)},
		{"matmul8-two", mm, TwoLevel(4, 16, 4096), RoundRobin(mm, 4, 0)},
		{"matmul8-grain3", mm, TwoLevel(4, 16, 4096), RoundRobin(mm, 4, 3)},
		{"cg-two", cg, TwoLevel(2, 12, 1<<16), RoundRobin(cg, 2, 0)},
		{"gmres-two", gm, TwoLevel(2, 12, 1<<16), RoundRobin(gm, 2, 8)},
		{"fft16-dist", fft, Distributed(2, 2, 6, 40, 1<<14), RoundRobin(fft, 4, 4)},
		{"jacobi2d-single", j2, TwoLevel(1, 12, 1<<14), SingleProcessor(j2)},
	}
}

// TestPlayMatchesReference checks that the heap-based player produces stats
// identical to the map-based reference player on every scenario.
func TestPlayMatchesReference(t *testing.T) {
	for _, sc := range equivScenarios() {
		want, errRef := PlayReference(sc.g, sc.topo, sc.asg)
		got, errNew := PlayCtx(context.Background(), sc.g, sc.topo, sc.asg)
		if (errRef == nil) != (errNew == nil) {
			t.Fatalf("%s: reference err = %v, optimized err = %v", sc.name, errRef, errNew)
		}
		if errRef != nil {
			if errRef.Error() != errNew.Error() {
				t.Fatalf("%s: reference err %q, optimized err %q", sc.name, errRef, errNew)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: statistics diverge\nreference: %v\noptimized: %v", sc.name, want, got)
		}
	}
}

// TestPlayMatchesReferenceEvictionChurn pins the heap re-keying on deadness
// flips against the eager reference player under heavy eviction churn: tight
// capacities so nearly every step runs eviction chains across several levels
// — the regime where a value's deadness flips several times between victim
// choices, each flip moving its key in every unit that holds it.  Randomized
// processor assignments (seeded) widen the coverage beyond the fixed scenario
// matrix; stats must stay bit-identical.
func TestPlayMatchesReferenceEvictionChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	graphs := map[string]*cdag.Graph{
		"jacobi1d": gen.Jacobi(1, 24, 5, gen.StencilStar).Graph,
		"matmul":   gen.MatMul(6).Graph,
		"fft":      gen.FFT(16),
		"cg":       gen.CG(1, 10, 2).Graph,
	}
	topos := []struct {
		name string
		topo Topology
	}{
		{"tight-two", TwoLevel(2, 6, 64)},
		{"tight-dist", Distributed(2, 2, 6, 24, 1<<12)},
	}
	for gname, g := range graphs {
		for _, tp := range topos {
			procs := tp.topo.Units(1)
			for trial := 0; trial < 3; trial++ {
				asg := RoundRobin(g, procs, 0)
				for i := range asg.Proc {
					asg.Proc[i] = rng.Intn(procs)
				}
				want, errRef := PlayReference(g, tp.topo, asg)
				got, errNew := PlayCtx(context.Background(), g, tp.topo, asg)
				if (errRef == nil) != (errNew == nil) {
					t.Fatalf("%s/%s trial %d: reference err = %v, optimized err = %v",
						gname, tp.name, trial, errRef, errNew)
				}
				if errRef != nil {
					if errRef.Error() != errNew.Error() {
						t.Fatalf("%s/%s trial %d: reference err %q, optimized err %q",
							gname, tp.name, trial, errRef, errNew)
					}
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s trial %d: statistics diverge\nreference: %v\noptimized: %v",
						gname, tp.name, trial, want, got)
				}
			}
		}
	}
}

// TestPlayErrorMatchesReference checks both outcomes of one CG-over-nodes
// assignment.  With 64-word caches the game completes in both players with
// identical statistics: a value whose last use is the in-flight step stays
// live until the step has fetched every operand, so no fetch evicts its only
// copy.  With 4-word caches a node's cache cannot hold a step's pinned
// values, and both players must fail with the same error.
func TestPlayErrorMatchesReference(t *testing.T) {
	cg := gen.CG(2, 6, 2).Graph
	asg := RoundRobin(cg, 4, 16)
	topo := Distributed(2, 2, 10, 64, 1<<16)
	want, errRef := PlayReference(cg, topo, asg)
	got, errNew := PlayCtx(context.Background(), cg, topo, asg)
	if errRef != nil || errNew != nil {
		t.Fatalf("64-word caches: reference err = %v, optimized err = %v", errRef, errNew)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("64-word caches: statistics diverge\nreference: %v\noptimized: %v", want, got)
	}

	topo = Distributed(2, 2, 10, 4, 1<<16)
	_, errRef = PlayReference(cg, topo, asg)
	_, errNew = PlayCtx(context.Background(), cg, topo, asg)
	if errRef == nil || errNew == nil {
		t.Fatalf("4-word caches: expected both players to fail, got reference=%v optimized=%v", errRef, errNew)
	}
	if errRef.Error() != errNew.Error() {
		t.Fatalf("error divergence: reference %q, optimized %q", errRef, errNew)
	}
	var pe *PlayError
	if !errors.As(errNew, &pe) {
		t.Fatalf("expected *PlayError, got %T", errNew)
	}
	if !strings.Contains(errNew.Error(), "full with pinned values") {
		t.Fatalf("4-word caches: error %q, want a full-unit error", errNew)
	}
}

// TestPlayGoldenSeed pins the traffic statistics of representative scenarios
// to the numbers produced by the original (pre-rewrite) map-based player, so
// the eviction semantics can never drift silently.
func TestPlayGoldenSeed(t *testing.T) {
	type golden struct {
		name    string
		in, out int64
		rget    int64
		ups     []int64
		downs   []int64
	}
	goldens := map[string]golden{
		"jacobi1d-dist":   {in: 48, out: 48, rget: 276, ups: []int64{852, 324, 0}, downs: []int64{0, 288, 278}},
		"matmul8-two":     {in: 128, out: 64, rget: 0, ups: []int64{1920, 0}, downs: []int64{0, 960}},
		"matmul8-grain3":  {in: 128, out: 64, rget: 0, ups: []int64{1920, 0}, downs: []int64{0, 960}},
		"cg-two":          {in: 108, out: 36, rget: 0, ups: []int64{1380, 0}, downs: []int64{0, 599}},
		"gmres-two":       {in: 25, out: 25, rget: 0, ups: []int64{1481, 0}, downs: []int64{0, 548}},
		"fft16-dist":      {in: 16, out: 16, rget: 8, ups: []int64{78, 24, 0}, downs: []int64{0, 39, 30}},
		"jacobi2d-single": {in: 100, out: 100, rget: 0, ups: []int64{3136, 0}, downs: []int64{0, 400}},
	}
	sum := func(xs []int64) int64 {
		var t int64
		for _, x := range xs {
			t += x
		}
		return t
	}
	for _, sc := range equivScenarios() {
		want, ok := goldens[sc.name]
		if !ok {
			continue
		}
		st, err := PlayCtx(context.Background(), sc.g, sc.topo, sc.asg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if got := sum(st.InputsAt); got != want.in {
			t.Errorf("%s: inputs = %d, seed produced %d", sc.name, got, want.in)
		}
		if got := sum(st.OutputsAt); got != want.out {
			t.Errorf("%s: outputs = %d, seed produced %d", sc.name, got, want.out)
		}
		if got := st.HorizontalTraffic(); got != want.rget {
			t.Errorf("%s: remote gets = %d, seed produced %d", sc.name, got, want.rget)
		}
		for l := range want.ups {
			if got := sum(st.MoveUpsInto[l]); got != want.ups[l] {
				t.Errorf("%s: level-%d move-ups = %d, seed produced %d", sc.name, l+1, got, want.ups[l])
			}
			if got := sum(st.MoveDownsInto[l]); got != want.downs[l] {
				t.Errorf("%s: level-%d move-downs = %d, seed produced %d", sc.name, l+1, got, want.downs[l])
			}
		}
	}
}

// TestPlayDeterministic replays the same scenario twice and demands
// bit-identical statistics: eviction must not depend on map iteration order
// or any other run-to-run nondeterminism.
func TestPlayDeterministic(t *testing.T) {
	for _, sc := range equivScenarios() {
		first, err1 := PlayCtx(context.Background(), sc.g, sc.topo, sc.asg)
		second, err2 := PlayCtx(context.Background(), sc.g, sc.topo, sc.asg)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic error: %v vs %v", sc.name, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two runs produced different statistics", sc.name)
		}
	}
}

// TestPlayCapacityExhausted drives the player into a unit whose every
// resident value is pinned by an in-flight fetch: a capacity-1 shared cache
// cannot hold both the value being walked down and the copy eviction wants to
// push down, so the player must fail with the capacity-exhausted error rather
// than loop or corrupt the game.  The optimized and reference players must
// agree on the failure.
func TestPlayCapacityExhausted(t *testing.T) {
	g := gen.DotProduct(8)
	topo := Topology{Levels: []LevelSpec{
		{Name: "regs", Units: 1, Capacity: 3},
		{Name: "cache", Units: 1, Capacity: 1},
		{Name: "mem", Units: 1, Capacity: 1 << 12},
	}}
	asg := SingleProcessor(g)
	_, errNew := PlayCtx(context.Background(), g, topo, asg)
	if errNew == nil {
		t.Fatal("expected capacity-exhausted error, got success")
	}
	var pe *PlayError
	if !errors.As(errNew, &pe) {
		t.Fatalf("expected *PlayError, got %T: %v", errNew, errNew)
	}
	const want = "full with pinned values"
	if !contains(pe.Reason, want) {
		t.Fatalf("error %q does not mention %q", pe.Reason, want)
	}
	_, errRef := PlayReference(g, topo, asg)
	if errRef == nil || errRef.Error() != errNew.Error() {
		t.Fatalf("reference error %v diverges from optimized %v", errRef, errNew)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSingleProcessorAssignment pins the SingleProcessor contract: the whole
// non-input topological order on processor 0.
func TestSingleProcessorAssignment(t *testing.T) {
	g := gen.DotProduct(6)
	asg := SingleProcessor(g)
	if len(asg.Order) != g.NumOperations() {
		t.Fatalf("order has %d steps, want %d", len(asg.Order), g.NumOperations())
	}
	for i, p := range asg.Proc {
		if p != 0 {
			t.Fatalf("step %d on processor %d, want 0", i, p)
		}
	}
}

// TestRoundRobinBlockCyclic pins the documented block-cyclic layout: blocks
// of the given grain dealt to processors in wrapping order.
func TestRoundRobinBlockCyclic(t *testing.T) {
	g := gen.Chain(10) // 1 input, 9 chained operations
	asg := RoundRobin(g, 2, 3)
	want := []int{0, 0, 0, 1, 1, 1, 0, 0, 0}
	if len(asg.Proc) != len(want) {
		t.Fatalf("got %d steps, want %d", len(asg.Proc), len(want))
	}
	for i := range want {
		if asg.Proc[i] != want[i] {
			t.Fatalf("step %d on processor %d, want %d (block-cyclic grain 3)", i, asg.Proc[i], want[i])
		}
	}
}

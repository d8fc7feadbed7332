package prbw

import (
	"context"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
	"cdagio/internal/machine"
)

func TestTopologyBasics(t *testing.T) {
	topo := Distributed(2, 4, 8, 64, 1024)
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if topo.NumLevels() != 3 || topo.Processors() != 8 || topo.Nodes() != 2 {
		t.Fatalf("topology shape wrong: %+v", topo)
	}
	// Processor 5 belongs to node 1 and to cache unit 1.
	if topo.NodeOf(5) != 1 {
		t.Errorf("NodeOf(5) = %d, want 1", topo.NodeOf(5))
	}
	if topo.UnitOnPath(2, 5) != 1 {
		t.Errorf("UnitOnPath(2,5) = %d, want 1", topo.UnitOnPath(2, 5))
	}
	if topo.UnitOnPath(1, 5) != 5 {
		t.Errorf("UnitOnPath(1,5) = %d, want 5", topo.UnitOnPath(1, 5))
	}
	if topo.Parent(1, 5) != 1 || topo.Parent(2, 1) != 1 {
		t.Errorf("Parent wrong: %d %d", topo.Parent(1, 5), topo.Parent(2, 1))
	}
	if topo.Capacity(2) != 64 || topo.Units(3) != 2 {
		t.Errorf("Capacity/Units wrong")
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	cases := []Topology{
		{},
		{Levels: []LevelSpec{{Name: "only", Units: 1, Capacity: 1}}},
		{Levels: []LevelSpec{{Name: "a", Units: 0, Capacity: 1}, {Name: "b", Units: 1, Capacity: 1}}},
		{Levels: []LevelSpec{{Name: "a", Units: 2, Capacity: 0}, {Name: "b", Units: 1, Capacity: 1}}},
		{Levels: []LevelSpec{{Name: "a", Units: 2, Capacity: 4}, {Name: "b", Units: 4, Capacity: 8}}},
		{Levels: []LevelSpec{{Name: "a", Units: 3, Capacity: 4}, {Name: "b", Units: 2, Capacity: 8}}},
	}
	for i, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTopologyPanics(t *testing.T) {
	topo := TwoLevel(2, 4, 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected Parent panic on last level")
			}
		}()
		topo.Parent(2, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected UnitOnPath panic on bad level")
			}
		}()
		topo.UnitOnPath(5, 0)
	}()
}

func TestFromMachine(t *testing.T) {
	topo := FromMachine(machine.IBMBGQ(), 32, 4096)
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// regs + L1 + L2 + mem = 4 levels.
	if topo.NumLevels() != 4 {
		t.Fatalf("levels = %d, want 4", topo.NumLevels())
	}
	if topo.Processors() != 2048*16 || topo.Nodes() != 2048 {
		t.Fatalf("processors/nodes wrong: %d / %d", topo.Processors(), topo.Nodes())
	}
	// Clamping applies to the large levels.
	for l := 2; l <= topo.NumLevels(); l++ {
		if topo.Capacity(l) > 4096 {
			t.Errorf("level %d capacity %d not clamped", l, topo.Capacity(l))
		}
	}
}

func TestGameRules(t *testing.T) {
	g := gen.Chain(3) // 0(in) -> 1 -> 2(out)
	topo := TwoLevel(2, 4, 8)
	game, err := NewGame(g, topo)
	if err != nil {
		t.Fatalf("NewGame: %v", err)
	}
	if game.Graph() != g || game.Topology().NumLevels() != 2 {
		t.Fatalf("accessors wrong")
	}
	// Input of a non-blue vertex fails.
	if err := game.Input(0, 1); err == nil {
		t.Errorf("expected input failure for non-blue vertex")
	}
	// Compute without register pebbles fails.
	if err := game.Compute(0, 1); err == nil {
		t.Errorf("expected compute failure without predecessors in registers")
	}
	// Legal sequence: load input into node memory, move up, compute, push
	// result down, store.
	if err := game.Input(0, 0); err != nil {
		t.Fatalf("Input: %v", err)
	}
	if !game.HasWhite(0) {
		t.Errorf("input load should place a white pebble")
	}
	if err := game.MoveUp(1, 0, 0); err != nil {
		t.Fatalf("MoveUp: %v", err)
	}
	if err := game.Compute(0, 1); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	// Recomputation is forbidden.
	if err := game.Compute(1, 1); err == nil {
		t.Errorf("expected recomputation failure")
	}
	if err := game.Compute(0, 2); err != nil {
		t.Fatalf("Compute 2: %v", err)
	}
	if err := game.MoveDown(2, 0, 2); err != nil {
		t.Fatalf("MoveDown: %v", err)
	}
	if err := game.Output(0, 2); err != nil {
		t.Fatalf("Output: %v", err)
	}
	if !game.IsComplete() {
		t.Fatalf("game should be complete: %s", game.Incomplete())
	}
	s := game.Snapshot()
	if s.VerticalTraffic(1) != 2 { // one move up (input 0), one move down (output 2)
		t.Errorf("vertical traffic = %d, want 2", s.VerticalTraffic(1))
	}
	if s.BlueTraffic() != 2 || s.HorizontalTraffic() != 0 || s.TotalComputes() != 2 {
		t.Errorf("traffic summary wrong: %+v", s)
	}
}

func TestGameRuleErrors(t *testing.T) {
	g := gen.Chain(3)
	topo := Distributed(2, 1, 3, 4, 8)
	game, err := NewGame(g, topo)
	if err != nil {
		t.Fatalf("NewGame: %v", err)
	}
	// Remote get needs a level-L pebble at another node.
	if err := game.RemoteGet(1, 0); err == nil {
		t.Errorf("expected remote-get failure")
	}
	// Output needs a level-L pebble.
	if err := game.Output(0, 0); err == nil {
		t.Errorf("expected output failure")
	}
	// Move up needs the parent to hold the value.
	if err := game.MoveUp(1, 0, 0); err == nil {
		t.Errorf("expected move-up failure")
	}
	// Move down needs a child to hold the value.
	if err := game.MoveDown(2, 0, 0); err == nil {
		t.Errorf("expected move-down failure")
	}
	// Move up into the last level and move down into level 1 are illegal.
	if err := game.MoveUp(3, 0, 0); err == nil {
		t.Errorf("expected move-up level failure")
	}
	if err := game.MoveDown(1, 0, 0); err == nil {
		t.Errorf("expected move-down level failure")
	}
	// Delete of an absent pebble fails.
	if err := game.Delete(Loc{Level: 1, Unit: 0}, 0); err == nil {
		t.Errorf("expected delete failure")
	}
	// Bad vertex / location arguments.
	if err := game.Input(0, 99); err == nil {
		t.Errorf("expected bad-vertex failure")
	}
	if err := game.Input(7, 0); err == nil {
		t.Errorf("expected bad-node failure")
	}
	if err := game.Compute(9, 1); err == nil {
		t.Errorf("expected bad-processor failure")
	}
	// Capacity is enforced: fill node 0's memory (capacity 8) with inputs...
	full := cdag.NewGraph("wide", 0)
	for i := 0; i < 10; i++ {
		full.AddInput("in")
	}
	game2, _ := NewGame(full, topo)
	placed := 0
	for i := 0; i < 10; i++ {
		if err := game2.Input(0, cdag.VertexID(i)); err != nil {
			break
		}
		placed++
	}
	if placed != 8 {
		t.Errorf("capacity not enforced: placed %d pebbles in a unit of capacity 8", placed)
	}
	// A remote get after the source node holds the value succeeds.
	if err := game2.Input(1, 9); err != nil {
		t.Fatalf("Input at node 1: %v", err)
	}
	if err := game2.RemoteGet(1, 0); err != nil {
		t.Fatalf("RemoteGet: %v", err)
	}
	s := game2.Snapshot()
	if s.HorizontalTraffic() != 1 || s.MaxNodeHorizontalTraffic() != 1 {
		t.Errorf("horizontal traffic wrong: %d", s.HorizontalTraffic())
	}
	var ruleErr *RuleError
	if err := game2.RemoteGet(1, 0); err == nil || !strings.Contains(err.Error(), "already present") {
		t.Errorf("expected duplicate remote-get failure, got %v", err)
	} else if !errorsAs(err, &ruleErr) {
		t.Errorf("error type = %T, want *RuleError", err)
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors for one call.
func errorsAs(err error, target **RuleError) bool {
	re, ok := err.(*RuleError)
	if ok {
		*target = re
	}
	return ok
}

func TestPlaySingleNode(t *testing.T) {
	g := gen.DotProduct(8)
	topo := TwoLevel(1, 4, 1024)
	stats, err := PlayCtx(context.Background(), g, topo, SingleProcessor(g))
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	// All 16 inputs must travel memory -> registers at least once, and the
	// output must travel back down: vertical traffic >= 17.
	if stats.VerticalTraffic(1) < 17 {
		t.Errorf("vertical traffic = %d, want >= 17", stats.VerticalTraffic(1))
	}
	if stats.HorizontalTraffic() != 0 {
		t.Errorf("single node should need no remote gets, got %d", stats.HorizontalTraffic())
	}
	if stats.BlueTraffic() < 17 {
		t.Errorf("blue traffic = %d, want >= 17 (16 input loads + 1 output store)", stats.BlueTraffic())
	}
	if stats.TotalComputes() != int64(g.NumOperations()) {
		t.Errorf("computes = %d, want %d", stats.TotalComputes(), g.NumOperations())
	}
	if stats.String() == "" {
		t.Errorf("empty stats string")
	}
}

func TestPlayTwoNodesHorizontalTraffic(t *testing.T) {
	// A dot product split across two nodes: the reduction forces values
	// computed on node 1 to be fetched by node 0 (or vice versa), so remote
	// gets must appear.
	g := gen.DotProduct(16)
	topo := Distributed(2, 1, 4, 16, 4096)
	asg := RoundRobin(g, 2, 4)
	stats, err := PlayCtx(context.Background(), g, topo, asg)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if stats.HorizontalTraffic() == 0 {
		t.Errorf("expected remote gets when the reduction spans two nodes")
	}
	if stats.TotalComputes() != int64(g.NumOperations()) {
		t.Errorf("computes = %d, want %d", stats.TotalComputes(), g.NumOperations())
	}
	// Both processors did work.
	if stats.ComputesBy[0] == 0 || stats.ComputesBy[1] == 0 {
		t.Errorf("work not distributed: %v", stats.ComputesBy)
	}
}

func TestPlaySmallCacheIncreasesVerticalTraffic(t *testing.T) {
	g := gen.MatMul(4).Graph
	big := Distributed(1, 1, 8, 256, 8192)
	small := Distributed(1, 1, 8, 16, 8192)
	asg := SingleProcessor(g)
	bigStats, err := PlayCtx(context.Background(), g, big, asg)
	if err != nil {
		t.Fatalf("Play big: %v", err)
	}
	smallStats, err := PlayCtx(context.Background(), g, small, asg)
	if err != nil {
		t.Fatalf("Play small: %v", err)
	}
	// A smaller cache must not reduce cache<->memory traffic.
	if smallStats.VerticalTraffic(2) < bigStats.VerticalTraffic(2) {
		t.Errorf("smaller cache produced less traffic: %d vs %d",
			smallStats.VerticalTraffic(2), bigStats.VerticalTraffic(2))
	}
}

func TestPlayJacobiBlockPartition(t *testing.T) {
	// 1-D Jacobi over 2 nodes with an owner-compute block partition: the
	// ghost-cell exchange at the block boundary shows up as remote gets, and
	// their count stays far below the per-node compute count.
	jr := gen.Jacobi(1, 32, 8, StencilStarForTest())
	g := jr.Graph
	owner := make([]int, g.NumVertices())
	for t1 := 0; t1 <= jr.Steps; t1++ {
		for c, v := range jr.Layer[t1] {
			node := 0
			if c >= 16 {
				node = 1
			}
			owner[v] = node
		}
	}
	topo := Distributed(2, 1, 4, 64, 8192)
	asg := OwnerCompute(g, owner)
	stats, err := PlayCtx(context.Background(), g, topo, asg)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if stats.HorizontalTraffic() == 0 {
		t.Errorf("expected ghost-cell remote gets")
	}
	// Ghost exchange is one value per step per boundary: far less than the
	// total work of 32×8 vertices.
	if stats.HorizontalTraffic() > int64(jr.Steps*8) {
		t.Errorf("horizontal traffic %d unexpectedly high", stats.HorizontalTraffic())
	}
}

// StencilStarForTest re-exports the star stencil constant without importing
// gen's identifier into the test names above.
func StencilStarForTest() gen.StencilKind { return gen.StencilStar }

func TestPlayErrors(t *testing.T) {
	g := gen.Chain(4)
	topo := TwoLevel(2, 4, 64)
	// Mismatched order/proc lengths.
	if _, err := PlayCtx(context.Background(), g, topo, Assignment{Order: []cdag.VertexID{1}, Proc: []int{0, 1}}); err == nil {
		t.Errorf("expected length mismatch error")
	}
	// Scheduled input.
	if _, err := PlayCtx(context.Background(), g, topo, Assignment{Order: []cdag.VertexID{0, 1, 2, 3}, Proc: []int{0, 0, 0, 0}}); err == nil {
		t.Errorf("expected scheduled-input error")
	}
	// Processor out of range.
	if _, err := PlayCtx(context.Background(), g, topo, Assignment{Order: []cdag.VertexID{1, 2, 3}, Proc: []int{0, 0, 9}}); err == nil {
		t.Errorf("expected processor range error")
	}
	// Missing vertex.
	if _, err := PlayCtx(context.Background(), g, topo, Assignment{Order: []cdag.VertexID{1, 2}, Proc: []int{0, 0}}); err == nil {
		t.Errorf("expected missing-vertex error")
	}
	// Dependence violation.
	if _, err := PlayCtx(context.Background(), g, topo, Assignment{Order: []cdag.VertexID{2, 1, 3}, Proc: []int{0, 0, 0}}); err == nil {
		t.Errorf("expected dependence error")
	}
	// Register file too small for the in-degree.
	d := gen.DotProduct(4)
	tiny := TwoLevel(1, 2, 64)
	if _, err := PlayCtx(context.Background(), d, tiny, SingleProcessor(d)); err == nil {
		t.Errorf("expected register-capacity error")
	}
	// Invalid topology.
	if _, err := PlayCtx(context.Background(), g, Topology{}, SingleProcessor(g)); err == nil {
		t.Errorf("expected topology error")
	}
}

func TestRoundRobinAndOwnerCompute(t *testing.T) {
	g := gen.Chain(10)
	asg := RoundRobin(g, 3, 2)
	if len(asg.Order) != 9 || len(asg.Proc) != 9 {
		t.Fatalf("assignment sizes wrong")
	}
	seen := map[int]bool{}
	for _, p := range asg.Proc {
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Errorf("round robin used %d processors, want 3", len(seen))
	}
	oc := OwnerCompute(g, nil)
	for _, p := range oc.Proc {
		if p != 0 {
			t.Errorf("OwnerCompute default should be processor 0")
		}
	}
}

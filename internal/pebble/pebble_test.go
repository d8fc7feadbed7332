package pebble

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// playTopological plays the topological schedule of g's non-input vertices
// under a never-cancelled context.
func playTopological(g *cdag.Graph, variant Variant, s int, policy EvictionPolicy) (Result, error) {
	return PlayScheduleCtx(context.Background(), g, variant, s, nonInputTopo(g), policy, false)
}

// mustApply applies a move the test believes legal, failing the test (not
// panicking the process) if the game disagrees.
func mustApply(t *testing.T, game *Game, m Move) {
	t.Helper()
	if err := game.Apply(m); err != nil {
		t.Fatalf("Apply(%v): %v", m, err)
	}
}

func TestGameRulesChain(t *testing.T) {
	g := gen.Chain(3) // x0 -> x1 -> x2
	game := NewGame(g, RBW, 2, true)
	if game.Variant() != RBW || game.Graph() != g {
		t.Fatalf("game accessors wrong")
	}
	// Loading a non-blue vertex fails.
	if err := game.Apply(Move{Load, 1}); err == nil {
		t.Fatalf("expected load failure on non-blue vertex")
	}
	// Computing with missing predecessor pebbles fails.
	if err := game.Apply(Move{Compute, 1}); err == nil {
		t.Fatalf("expected compute failure without predecessors")
	}
	// Computing an input fails.
	if err := game.Apply(Move{Compute, 0}); err == nil {
		t.Fatalf("expected compute failure on input")
	}
	mustApply(t, game, Move{Load, 0})
	if !game.HasRed(0) || !game.HasWhite(0) {
		t.Fatalf("load did not place red+white pebbles")
	}
	// Loading again fails (already red).
	if err := game.Apply(Move{Load, 0}); err == nil {
		t.Fatalf("expected duplicate load failure")
	}
	mustApply(t, game, Move{Compute, 1})
	// Fast memory is now full (S=2): another compute must fail.
	if err := game.Apply(Move{Compute, 2}); err == nil {
		t.Fatalf("expected compute failure with no free red pebble")
	}
	mustApply(t, game, Move{Delete, 0})
	// Recomputation is forbidden in RBW.
	if err := game.Apply(Move{Compute, 1}); err == nil {
		t.Fatalf("expected recomputation failure in RBW")
	}
	mustApply(t, game, Move{Compute, 2})
	if game.IsComplete() {
		t.Fatalf("game should not be complete before the output store")
	}
	if msg := game.Incomplete(); !strings.Contains(msg, "output") {
		t.Fatalf("Incomplete = %q", msg)
	}
	mustApply(t, game, Move{Store, 2})
	if !game.IsComplete() {
		t.Fatalf("game should be complete, still missing: %s", game.Incomplete())
	}
	if game.IO() != 2 || game.Loads() != 1 || game.Stores() != 1 {
		t.Fatalf("IO accounting wrong: %d loads, %d stores", game.Loads(), game.Stores())
	}
	if len(game.Trace()) == 0 {
		t.Fatalf("trace not recorded")
	}
	// Deleting a pebble that is not there fails.
	if err := game.Apply(Move{Delete, 0}); err == nil {
		t.Fatalf("expected delete failure")
	}
	// Storing from a vertex without a red pebble fails.
	if err := game.Apply(Move{Store, 0}); err == nil {
		t.Fatalf("expected store failure")
	}
	// Out-of-range vertex.
	if err := game.Apply(Move{Load, 99}); err == nil {
		t.Fatalf("expected out-of-range failure")
	}
	// Unknown move kind.
	if err := game.Apply(Move{MoveKind(42), 0}); err == nil {
		t.Fatalf("expected unknown-kind failure")
	}
	var illegal *IllegalMoveError
	if err := game.Apply(Move{Delete, 0}); !errors.As(err, &illegal) {
		t.Fatalf("error type = %T, want *IllegalMoveError", err)
	}
}

func TestHongKungAllowsRecomputation(t *testing.T) {
	g := gen.Chain(3)
	game := NewGame(g, HongKung, 2, false)
	mustApply(t, game, Move{Load, 0})
	mustApply(t, game, Move{Compute, 1})
	mustApply(t, game, Move{Delete, 1})
	// Recompute the same vertex: legal in the Hong-Kung variant.
	if err := game.Apply(Move{Compute, 1}); err != nil {
		t.Fatalf("recompute should be legal in Hong-Kung: %v", err)
	}
}

func TestApplyIllegalMoveLeavesStateUnchanged(t *testing.T) {
	g := gen.Chain(2)
	game := NewGame(g, RBW, 1, false)
	var illegal *IllegalMoveError
	if err := game.Apply(Move{Compute, 0}); !errors.As(err, &illegal) {
		t.Fatalf("computing an input: error type = %T, want *IllegalMoveError", err)
	}
	if game.RedInUse() != 0 || game.IO() != 0 {
		t.Fatalf("failed move mutated game state")
	}
}

func TestStringers(t *testing.T) {
	if HongKung.String() == "" || RBW.String() == "" || Variant(9).String() == "" {
		t.Errorf("variant strings empty")
	}
	for _, k := range []MoveKind{Load, Store, Compute, Delete, MoveKind(9)} {
		if k.String() == "" {
			t.Errorf("move kind string empty")
		}
	}
	if (Move{Load, 3}).String() != "load(3)" {
		t.Errorf("move string = %q", Move{Load, 3}.String())
	}
	for _, p := range []EvictionPolicy{Belady, LRU, EvictionPolicy(9)} {
		if p.String() == "" {
			t.Errorf("policy string empty")
		}
	}
	r := Result{Variant: RBW, S: 4, Loads: 2, Stores: 1}
	if r.IO() != 3 || !strings.Contains(r.String(), "S=4") {
		t.Errorf("result summary wrong: %v", r)
	}
}

func TestNewGamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for S=0")
		}
	}()
	NewGame(gen.Chain(2), RBW, 0, false)
}

func TestPlayScheduleChain(t *testing.T) {
	g := gen.Chain(10)
	res, err := playTopological(g, RBW, 2, Belady)
	if err != nil {
		t.Fatalf("playTopological: %v", err)
	}
	// One load of the input, one store of the output.
	if res.IO() != 2 {
		t.Fatalf("chain I/O = %d, want 2", res.IO())
	}
}

func TestPlayScheduleOuterProduct(t *testing.T) {
	n := 6
	g := gen.OuterProduct(n)
	// With ample fast memory the cost is exactly 2n loads + n² stores.
	res, err := playTopological(g, RBW, 2*n+n*n+4, Belady)
	if err != nil {
		t.Fatalf("playTopological: %v", err)
	}
	if res.Loads != 2*n || res.Stores != n*n {
		t.Fatalf("outer product I/O = %d loads + %d stores, want %d + %d",
			res.Loads, res.Stores, 2*n, n*n)
	}
	// With minimal fast memory the cost cannot drop below 2n + n².
	resSmall, err := playTopological(g, RBW, 3, Belady)
	if err != nil {
		t.Fatalf("playTopological small: %v", err)
	}
	if resSmall.IO() < 2*n+n*n {
		t.Fatalf("outer product small-S I/O = %d below the unconditional minimum %d",
			resSmall.IO(), 2*n+n*n)
	}
}

func TestPlayScheduleMatMul(t *testing.T) {
	n := 4
	r := gen.MatMul(n)
	g := r.Graph
	// Large S: every value fits, so I/O = 2n² loads + n² stores.
	big, err := playTopological(g, RBW, g.NumVertices()+1, Belady)
	if err != nil {
		t.Fatalf("playTopological big: %v", err)
	}
	if big.Loads != 2*n*n || big.Stores != n*n {
		t.Fatalf("matmul big-S I/O = %d + %d, want %d + %d", big.Loads, big.Stores, 2*n*n, n*n)
	}
	// Small S forces extra traffic.
	small, err := playTopological(g, RBW, 8, Belady)
	if err != nil {
		t.Fatalf("playTopological small: %v", err)
	}
	if small.IO() <= big.IO() {
		t.Fatalf("small-S I/O %d not larger than big-S I/O %d", small.IO(), big.IO())
	}
}

func TestPlayScheduleBeladyVsLRU(t *testing.T) {
	g := gen.FFT(16)
	belady, err := playTopological(g, RBW, 8, Belady)
	if err != nil {
		t.Fatalf("belady: %v", err)
	}
	lru, err := playTopological(g, RBW, 8, LRU)
	if err != nil {
		t.Fatalf("lru: %v", err)
	}
	if belady.IO() > lru.IO() {
		t.Fatalf("Belady (%d) should not lose to LRU (%d) on the same schedule", belady.IO(), lru.IO())
	}
	// More fast memory never hurts for the same schedule and policy.
	bigger, err := playTopological(g, RBW, 16, Belady)
	if err != nil {
		t.Fatalf("bigger: %v", err)
	}
	if bigger.IO() > belady.IO() {
		t.Fatalf("more red pebbles increased I/O: %d vs %d", bigger.IO(), belady.IO())
	}
}

// TestPlayScheduleErrors pins the full text of every schedule fault the
// player reports, and checks that the reference player, which keeps its own
// checks, words each one the same way.
func TestPlayScheduleErrors(t *testing.T) {
	chain := gen.Chain(4) // vertices 0(in),1,2,3(out)
	dot := gen.DotProduct(4)
	cases := []struct {
		g     *cdag.Graph
		s     int
		order []cdag.VertexID
		want  string
	}{
		{chain, 2, []cdag.VertexID{0, 1, 2, 3}, "pebble: invalid schedule: input vertex 0 scheduled for compute"},
		{chain, 2, []cdag.VertexID{1, 1, 2, 3}, "pebble: invalid schedule: vertex 1 scheduled twice"},
		{chain, 2, []cdag.VertexID{1, 2}, "pebble: invalid schedule: vertex 3 missing from schedule"},
		{chain, 2, []cdag.VertexID{2, 1, 3}, "pebble: invalid schedule: vertex 2 scheduled before its predecessor 1"},
		{chain, 2, []cdag.VertexID{1, 2, 99}, "pebble: invalid schedule: vertex 99 out of range"},
		{chain, 0, []cdag.VertexID{1, 2, 3}, "pebble: invalid schedule: S=0: need at least one red pebble"},
		{dot, 2, nonInputTopo(dot), "pebble: invalid schedule: S=2 too small: vertex 2 has in-degree 2"},
	}
	ctx := context.Background()
	for i, c := range cases {
		_, err := PlayScheduleCtx(ctx, c.g, RBW, c.s, c.order, Belady, false)
		var se *ScheduleError
		if !errors.As(err, &se) || err.Error() != c.want {
			t.Errorf("case %d: error %v (%T), want %q", i, err, err, c.want)
		}
		if _, errRef := playScheduleReference(ctx, c.g, RBW, c.s, c.order, Belady, false); errRef == nil || errRef.Error() != c.want {
			t.Errorf("case %d: reference error %v, want %q", i, errRef, c.want)
		}
	}
}

func TestOptimalIOChain(t *testing.T) {
	g := gen.Chain(5)
	io, err := OptimalIOCtx(context.Background(), g, RBW, 2, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO: %v", err)
	}
	if io != 2 {
		t.Fatalf("optimal chain I/O = %d, want 2", io)
	}
	// The Hong-Kung variant can do no better on a chain.
	ioHK, err := OptimalIOCtx(context.Background(), g, HongKung, 2, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO HK: %v", err)
	}
	if ioHK != 2 {
		t.Fatalf("optimal HK chain I/O = %d, want 2", ioHK)
	}
}

func TestOptimalIODiamond(t *testing.T) {
	g := cdag.NewGraph("diamond", 4)
	a := g.AddInput("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddOutput("d")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	io, err := OptimalIOCtx(context.Background(), g, RBW, 3, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO: %v", err)
	}
	if io != 2 {
		t.Fatalf("optimal diamond I/O = %d, want 2", io)
	}
	// With only 2 red pebbles no complete game exists (computing d requires
	// both predecessors plus d itself to hold red pebbles).
	if _, err := OptimalIOCtx(context.Background(), g, RBW, 2, OptimalOptions{}); err == nil {
		t.Fatalf("expected no complete game with S=2 on the diamond")
	}
}

func TestOptimalIOForcedSpill(t *testing.T) {
	// a, b inputs; c = f(a,b); d = f(a,c); e = f(b,c); out = f(d,e).
	// All in-degrees are 2, so S=3 admits a complete game, but only 3 values
	// fit in fast memory at once, forcing spills: optimal I/O exceeds
	// |I| + |O| = 3.
	g := cdag.NewGraph("spill", 6)
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddVertex("c")
	d := g.AddVertex("d")
	e := g.AddVertex("e")
	out := g.AddOutput("out")
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	g.AddEdge(a, d)
	g.AddEdge(c, d)
	g.AddEdge(b, e)
	g.AddEdge(c, e)
	g.AddEdge(d, out)
	g.AddEdge(e, out)
	opt, err := OptimalIOCtx(context.Background(), g, RBW, 3, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO: %v", err)
	}
	if opt <= 3 {
		t.Fatalf("optimal I/O = %d, want > 3 (forced spill)", opt)
	}
	// With S=6 everything fits: exactly 2 loads + 1 store.
	roomy, err := OptimalIOCtx(context.Background(), g, RBW, 6, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO roomy: %v", err)
	}
	if roomy != 3 {
		t.Fatalf("roomy optimal = %d, want 3", roomy)
	}
	// The schedule player must reproduce the roomy optimum and stay legal in
	// the tight case.
	sched, err := playTopological(g, RBW, 3, Belady)
	if err != nil {
		t.Fatalf("playTopological: %v", err)
	}
	if sched.IO() < opt {
		t.Fatalf("scheduled I/O %d below optimum %d", sched.IO(), opt)
	}
}

func TestOptimalIOSTooSmall(t *testing.T) {
	g := gen.DotProduct(2) // has a vertex with in-degree 2, needs S >= 3
	if _, err := OptimalIOCtx(context.Background(), g, RBW, 2, OptimalOptions{MaxStates: 100000}); err == nil {
		t.Fatalf("expected failure when no complete game exists")
	}
}

func TestOptimalIOErrors(t *testing.T) {
	big := gen.Jacobi(2, 6, 2, gen.StencilStar).Graph // 108 vertices > 64
	if _, err := OptimalIOCtx(context.Background(), big, RBW, 4, OptimalOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
	g := gen.FFT(8)
	if _, err := OptimalIOCtx(context.Background(), g, RBW, 4, OptimalOptions{MaxStates: 10}); !errors.Is(err, ErrSearchBudget) {
		t.Errorf("expected ErrSearchBudget, got %v", err)
	}
	if _, err := OptimalIOCtx(context.Background(), gen.Chain(2), RBW, 0, OptimalOptions{}); err == nil {
		t.Errorf("expected error for S=0")
	}
}

// TestScheduledNeverBeatsOptimal is the lower/upper sandwich for the schedule
// player: the exact optimum of the game never exceeds the I/O of the game the
// player builds.  It runs four fixed graphs and random DAGs of four to eight
// vertices, the topological and a random schedule, both variants, both
// policies and the three smallest feasible S.
func TestScheduledNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	cases := []*cdag.Graph{
		gen.Chain(6),
		gen.DotProduct(3),
		gen.ReductionTree(6),
		gen.Pyramid(3),
	}
	randomCases := 40
	if testing.Short() {
		randomCases = 10
	}
	for k := 0; k < randomCases; k++ {
		cases = append(cases, randomDAG(rng, 4+rng.Intn(5)))
	}
	ctx := context.Background()
	for _, g := range cases {
		orders := [][]cdag.VertexID{nonInputTopo(g), randomTopo(rng, g)}
		maxIn := maxOpInDegree(g)
		for _, variant := range []Variant{RBW, HongKung} {
			for s := maxIn + 1; s <= maxIn+3; s++ {
				opt, err := OptimalIOCtx(ctx, g, variant, s, OptimalOptions{})
				if err != nil {
					t.Fatalf("%s %v S=%d: OptimalIOCtx: %v", g.Name(), variant, s, err)
				}
				// A minimum amount of I/O is unavoidable: every input load
				// and output store is an I/O in the RBW game.
				if variant == RBW && opt < g.NumInputs()+g.NumOutputs() && g.NumInputs() > 0 {
					t.Errorf("%s S=%d: optimal %d below |I|+|O| = %d", g.Name(), s, opt, g.NumInputs()+g.NumOutputs())
				}
				for oi, order := range orders {
					for _, policy := range []EvictionPolicy{Belady, LRU} {
						res, err := PlayScheduleCtx(ctx, g, variant, s, order, policy, false)
						if err != nil {
							t.Fatalf("%s order %d %v %v S=%d: PlayScheduleCtx: %v", g.Name(), oi, variant, policy, s, err)
						}
						if res.IO() < opt {
							t.Errorf("%s order %d %v %v S=%d: played I/O %d below proven optimum %d",
								g.Name(), oi, variant, policy, s, res.IO(), opt)
						}
					}
				}
			}
		}
	}
}

func TestHongKungNeverWorseThanRBW(t *testing.T) {
	// Every complete RBW game is a complete Hong-Kung game, so the optimal
	// Hong-Kung I/O can never exceed the optimal RBW I/O.
	f := func(edgesRaw []uint16, nRaw, sRaw uint8) bool {
		n := int(nRaw%6) + 2
		g := cdag.NewGraph("rand", n)
		g.AddVertices(n)
		for _, e := range edgesRaw {
			u := int(e) % n
			v := int(e>>8) % n
			if u >= v {
				continue
			}
			g.AddEdge(cdag.VertexID(u), cdag.VertexID(v))
		}
		g.TagHongKung()
		maxIn := 0
		for _, v := range g.Vertices() {
			if g.InDegree(v) > maxIn {
				maxIn = g.InDegree(v)
			}
		}
		s := maxIn + 1 + int(sRaw%3)
		hk, err1 := OptimalIOCtx(context.Background(), g, HongKung, s, OptimalOptions{MaxStates: 300000})
		rbw, err2 := OptimalIOCtx(context.Background(), g, RBW, s, OptimalOptions{MaxStates: 300000})
		if err1 != nil || err2 != nil {
			return true // skip searches that blow the budget
		}
		return hk <= rbw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlayScheduleMatchesOptimalOnTrees(t *testing.T) {
	// For a reduction tree over 8 inputs with S=5 the greedy player reaches
	// the optimum exactly: load each input once, store the single output.
	g := gen.ReductionTree(8)
	opt, err := OptimalIOCtx(context.Background(), g, RBW, 5, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO: %v", err)
	}
	if opt != 9 {
		t.Errorf("optimal reduction-tree I/O (S=5) = %d, want 9 (8 loads + 1 store)", opt)
	}
	// A depth-first (post-order) schedule lets the greedy player reach the
	// optimum; the breadth-first topological order does not (it keeps all
	// partial sums live at once and is forced to spill).
	postOrder := []cdag.VertexID{8, 9, 12, 10, 11, 13, 14}
	dfs, err := PlayScheduleCtx(context.Background(), g, RBW, 5, postOrder, Belady, false)
	if err != nil {
		t.Fatalf("PlaySchedule post-order: %v", err)
	}
	if dfs.IO() != opt {
		t.Errorf("post-order scheduled I/O %d != optimal %d", dfs.IO(), opt)
	}
	bfs, err := playTopological(g, RBW, 5, Belady)
	if err != nil {
		t.Fatalf("playTopological: %v", err)
	}
	if bfs.IO() < opt {
		t.Errorf("breadth-first scheduled I/O %d below optimum %d", bfs.IO(), opt)
	}
	// With S=4 one partial result must spill and be reloaded: the proven
	// optimum rises to 11 (9 loads + 2 stores).
	tight, err := OptimalIOCtx(context.Background(), g, RBW, 4, OptimalOptions{})
	if err != nil {
		t.Fatalf("OptimalIO tight: %v", err)
	}
	if tight != 11 {
		t.Errorf("optimal reduction-tree I/O (S=4) = %d, want 11", tight)
	}
}

func TestUnconsumedInputIsStillLoadedInRBW(t *testing.T) {
	// An input with no successors must still receive a white pebble (i.e., be
	// loaded once) for the RBW game to be complete.
	g := cdag.NewGraph("dangling", 3)
	a := g.AddInput("a")
	b := g.AddInput("unused")
	c := g.AddOutput("c")
	g.AddEdge(a, c)
	_ = b
	res, err := playTopological(g, RBW, 2, Belady)
	if err != nil {
		t.Fatalf("playTopological: %v", err)
	}
	if res.Loads != 2 {
		t.Fatalf("loads = %d, want 2 (both inputs touched)", res.Loads)
	}
}

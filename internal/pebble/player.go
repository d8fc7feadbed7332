package pebble

import (
	"context"
	"errors"
	"fmt"

	"cdagio/internal/cdag"
	"cdagio/internal/iheap"
	"cdagio/internal/sched"
)

// EvictionPolicy selects how the schedule player chooses a red pebble to
// free when the fast memory is full.
type EvictionPolicy int

const (
	// Belady evicts the vertex whose next use lies farthest in the future
	// (the offline-optimal replacement policy for a fixed schedule).
	Belady EvictionPolicy = iota
	// LRU evicts the least recently used vertex.
	LRU
)

// String returns the policy name.
func (p EvictionPolicy) String() string {
	switch p {
	case Belady:
		return "belady"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("EvictionPolicy(%d)", int(p))
	}
}

// ScheduleError reports a schedule the player cannot execute.
type ScheduleError struct{ Reason string }

func (e *ScheduleError) Error() string { return "pebble: invalid schedule: " + e.Reason }

// PlayScheduleCtx executes the given vertex schedule on g as a complete pebble
// game with s red pebbles and returns the resulting I/O counts.  The schedule
// must list every non-input vertex exactly once, in an order compatible with
// the CDAG's edges (a topological order of the non-input vertices).  Input
// vertices are loaded on demand.
//
// The returned I/O count is the cost of a legal game, hence an upper bound on
// the I/O complexity of g for the given S.  With the Belady policy the count
// is optimal for the fixed schedule up to the store-on-evict heuristic.
//
// PlayScheduleCtx fails if s is smaller than the largest in-degree plus one
// (a vertex and all its predecessors must hold red pebbles simultaneously).
//
// sched.Check validates the schedule and indexes its uses, which give each
// value's next use.  The player allocates only run-constant state: that
// index, pinned sets as epoch stamps, and the red-pebble set as an indexed
// max-heap (iheap.PriorityHeap) keyed by eviction preference, so each
// eviction pops its victim in O(log S) instead of scanning every red pebble.
// The heap's index holds one int32 per vertex and its entries one per
// resident value, so memory does not depend on S.
//
// ctx bounds the play: the player checks it on entry and every 4096 schedule
// steps (like prbw.PlayCtx and memsim.RunCtx) and returns ctx.Err() once it
// is cancelled, so a serving layer's deadlines and forced drain reach long
// plays on large graphs.
func PlayScheduleCtx(ctx context.Context, g *cdag.Graph, variant Variant, s int, order []cdag.VertexID,
	policy EvictionPolicy, record bool) (Result, error) {

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// s reaches NewGame below, which treats a non-positive pebble budget as a
	// programmer error and panics; on this path s is caller (request) data,
	// so it must fail as an input error instead.
	if s < 1 {
		return Result{}, &ScheduleError{Reason: fmt.Sprintf("S=%d: need at least one red pebble", s)}
	}
	uses, err := sched.Check(g, order, s)
	if err != nil {
		reason := err.Error()
		var ce *sched.CapacityError
		if errors.As(err, &ce) {
			reason = fmt.Sprintf("S=%d too small: vertex %d has in-degree %d", s, ce.Vertex, ce.InDegree)
		}
		return Result{}, &ScheduleError{Reason: reason}
	}
	n := g.NumVertices()
	// Every traversal below replays predecessor rows, so hoist the flat CSR
	// arrays once: the rows are identical to g.Pred(v) in content and order,
	// without the per-call facade overhead.
	predOff, predVal := g.PredecessorCSR()
	lastUse := make([]int, n)

	// The red set as a max-heap over eviction keys (see evictKey).  A step's
	// loaded operands and fired vertex enter it when the step ends; until
	// then they are pinned, so no eviction can want them.
	var red iheap.PriorityHeap
	red.Init(n)

	// Pinned sets as epoch stamps over a shared scratch array.
	pinStamp := make([]int32, n)
	pinEpoch := int32(0)

	game := NewGame(g, variant, s, record)
	clock := 0

	needsPreserve := func(v cdag.VertexID, i int) bool {
		if uses.Next(v, i) != sched.Never {
			return true
		}
		return g.IsOutput(v) && !game.HasBlue(v)
	}

	// evictKey ranks resident v for eviction after schedule position i; the
	// heap pops the largest key, ties to the smallest vertex ID.  A value
	// nothing needs any more ranks first (never).  Among preserved values,
	// Belady ranks by next use, an output needed only for its final store
	// just below never; LRU ranks the least recently used first.  A key stays
	// valid until v's next use, where v is pinned and then re-keyed, or until
	// an output gains its blue pebble, after which every resident is re-keyed.
	evictKey := func(v cdag.VertexID, i int) int64 {
		switch {
		case !needsPreserve(v, i):
			return int64(sched.Never)
		case policy == LRU:
			return -int64(lastUse[v])
		}
		if next := uses.Next(v, i); next != sched.Never {
			return int64(next)
		}
		return int64(sched.Never - 1)
	}
	// evictOne frees a red pebble, avoiding pinned vertices.  It stores the
	// victim first when its value would otherwise be lost.
	evictOne := func(i int) error {
		victim, _, ok := red.PopMaxUnpinned(pinStamp, pinEpoch)
		if !ok {
			return &ScheduleError{Reason: fmt.Sprintf("S=%d too small at schedule position %d: all red pebbles pinned", s, i)}
		}
		if needsPreserve(victim, i) && !game.HasBlue(victim) {
			if err := game.Apply(Move{Store, victim}); err != nil {
				return err
			}
		}
		return game.Apply(Move{Delete, victim})
	}
	// settle ends v's part in step i: a value that is dead from here on is
	// dropped (free, no I/O), a survivor is re-keyed.
	settle := func(v cdag.VertexID, i int) error {
		if !game.HasRed(v) {
			return nil
		}
		key := evictKey(v, i)
		if key != int64(sched.Never) {
			red.Update(v, key)
			return nil
		}
		red.Remove(v)
		return game.Apply(Move{Delete, v})
	}
	ensureRoom := func(i int) error {
		for game.RedInUse() >= s {
			if err := evictOne(i); err != nil {
				return err
			}
		}
		return nil
	}

	moves := 0
	for i, v := range order {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// One row slice serves the pinning, fetching and dead-drop passes of
		// this step — no repeated Pred calls inside the step.
		preds := predVal[predOff[v]:predOff[v+1]]
		pinEpoch++
		for _, p := range preds {
			pinStamp[p] = pinEpoch
		}
		// Bring all predecessors into fast memory.
		for _, p := range preds {
			if game.HasRed(p) {
				lastUse[p] = clock
				continue
			}
			if !game.HasBlue(p) {
				return Result{}, &ScheduleError{
					Reason: fmt.Sprintf("value of vertex %d lost before use by %d", p, v)}
			}
			if err := ensureRoom(i); err != nil {
				return Result{}, err
			}
			if err := game.Apply(Move{Load, p}); err != nil {
				return Result{}, err
			}
			lastUse[p] = clock
			moves++
		}
		// Fire v.
		if err := ensureRoom(i); err != nil {
			return Result{}, err
		}
		if err := game.Apply(Move{Compute, v}); err != nil {
			return Result{}, err
		}
		lastUse[v] = clock
		moves++
		clock++
		// Drop the step's dead values, re-key its survivors.
		for _, p := range preds {
			if err := settle(p, i); err != nil {
				return Result{}, err
			}
		}
		if err := settle(v, i); err != nil {
			return Result{}, err
		}
	}

	// Store outputs that still live only in fast memory, and make sure every
	// input was touched at least once (RBW completion requires white pebbles
	// everywhere, including on inputs that no scheduled vertex consumed).
	for _, v := range g.Outputs() {
		if !game.HasBlue(v) {
			if !game.HasRed(v) {
				return Result{}, &ScheduleError{Reason: fmt.Sprintf("output %d lost before final store", v)}
			}
			if err := game.Apply(Move{Store, v}); err != nil {
				return Result{}, err
			}
			moves++
		}
	}
	if variant == RBW {
		// The final stores freed the outputs still resident, so re-key every
		// resident: free values go first, by smallest vertex ID.
		for v := 0; v < n; v++ {
			if id := cdag.VertexID(v); game.HasRed(id) {
				red.Update(id, evictKey(id, len(order)))
			}
		}
		for i, v := range g.Inputs() {
			if i&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
			}
			if game.HasWhite(v) {
				continue
			}
			pinEpoch++ // nothing pinned during the final input touches
			if err := ensureRoom(len(order)); err != nil {
				return Result{}, err
			}
			if err := game.Apply(Move{Load, v}); err != nil {
				return Result{}, err
			}
			moves++
			if err := game.Apply(Move{Delete, v}); err != nil {
				return Result{}, err
			}
		}
	}
	if !game.IsComplete() {
		return Result{}, &ScheduleError{Reason: "game incomplete after schedule: " + game.Incomplete()}
	}
	return game.result(moves), nil
}

package prbw

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"cdagio/internal/cdag"
	"cdagio/internal/fault"
	"cdagio/internal/iheap"
	"cdagio/internal/sched"
)

// Assignment describes a parallel execution of a CDAG: a single global
// sequence of compute steps (the pebble game is sequential; parallelism only
// determines which processor, and therefore which storage path, each step
// uses) together with the processor that executes each step.
type Assignment struct {
	Order []cdag.VertexID
	Proc  []int
}

// RoundRobin builds a block-cyclic assignment: the non-input vertices of the
// topological order of g are dealt to the p processors in contiguous blocks
// of the given grain, wrapping around after processor p−1.  Despite the name
// the distribution is only vertex-by-vertex round-robin for grain 1; grain ≤ 0
// selects one contiguous block per processor (an even block distribution).
func RoundRobin(g *cdag.Graph, p, grain int) Assignment {
	order := sched.Topological(g)
	if grain <= 0 {
		grain = (len(order) + p - 1) / p
		if grain == 0 {
			grain = 1
		}
	}
	procs := make([]int, len(order))
	for i := range order {
		procs[i] = (i / grain) % p
	}
	return Assignment{Order: order, Proc: procs}
}

// SingleProcessor builds an assignment that runs the whole topological order
// on processor 0.
func SingleProcessor(g *cdag.Graph) Assignment {
	return RoundRobin(g, 1, 0)
}

// OwnerCompute builds an assignment from an explicit vertex→processor map and
// the topological order of g.  Vertices mapped to a negative processor are
// assigned to processor 0.
func OwnerCompute(g *cdag.Graph, owner []int) Assignment {
	order := sched.Topological(g)
	procs := make([]int, len(order))
	for i, v := range order {
		if int(v) < len(owner) && owner[v] >= 0 {
			procs[i] = owner[v]
		}
	}
	return Assignment{Order: order, Proc: procs}
}

// PlayError reports why a distributed schedule could not be executed.
type PlayError struct{ Reason string }

func (e *PlayError) Error() string { return "prbw: " + e.Reason }

// pinSet is an allocation-free membership set of vertices protected from
// eviction: v is pinned when stamps[v] == epoch.
type pinSet struct {
	stamps []int32
	epoch  int32
}

// deadKey is the eviction-key term of a dead value: it ranks every dead value
// ahead of every live one, whose keys are minus a touch clock.
const deadKey = 1 << 62

// player carries the bookkeeping of one PlayCtx run.  Unlike the reference
// player it keeps no per-unit maps and allocates nothing per compute step:
// recency and deadness live in per-unit indexed heaps and dense per-vertex
// arrays, and pinned sets are epoch stamps.
type player struct {
	game *Game
	g    *cdag.Graph
	topo Topology

	clock int64 // compute steps executed so far; the touch timestamp

	// No step needs v once uses.Last(v) ≤ fetched, the position of the last
	// step holding all its operands (the reference player's nextUse(pos)).
	uses    *sched.Uses
	fetched int
	// dead[v] caches whether losing one copy of v costs nothing: a copy
	// exists elsewhere, a blue pebble backs it, or no later step needs it.
	// It is refreshed after every game move that can flip it.
	dead []bool

	// units[unitBase[level-1]+unit] holds the values resident in that unit,
	// keyed (dead ? deadKey : 0) − last touch there.  Popping the largest key
	// (ties to the smallest vertex ID) yields the reference player's victim:
	// dead values first, then the least recently touched.
	units    []iheap.PriorityHeap
	unitBase []int

	// stepPins stamps the operands of the current compute step; onePin
	// stamps the single value a fetch, raise or final store protects.
	stepPins pinSet
	onePin   pinSet
}

// PlayCtx executes the assignment on g over the topology and returns the
// resulting data-movement statistics of a complete legal P-RBW game.  The
// assignment must schedule every non-input vertex exactly once in dependence
// order on a valid processor, and the register capacity must exceed the
// largest in-degree.  sched.Check validates the order and indexes its uses,
// from which the player reads each value's last use.
//
// The player's eviction order is that of the map-based reference player its
// tests pin it against (dead values first, then least recently touched, ties
// by vertex ID), but each victim comes from one PopMaxUnpinned call on the
// unit's heap instead of a scan of the unit, and the play performs no
// per-step allocations.
//
// ctx bounds the game: the schedule loop checks it every 4096 compute steps
// (individual game moves stay atomic) and returns ctx.Err() promptly once the
// context is cancelled.
//
// The whole play runs under a recover wrapper: a panic inside the player (or
// injected at the fault.PointPRBWPlay point) is returned as a
// *fault.PanicError instead of crashing the caller's process.
func PlayCtx(ctx context.Context, g *cdag.Graph, topo Topology, asg Assignment) (stats *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*fault.PanicError); ok {
				stats, err = nil, pe
				return
			}
			stats, err = nil, &fault.PanicError{Label: fault.PointPRBWPlay, Value: r, Stack: debug.Stack()}
		}
	}()
	fault.Inject(fault.PointPRBWPlay)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if len(asg.Order) != len(asg.Proc) {
		return nil, &PlayError{Reason: "assignment order and processor slices differ in length"}
	}
	uses, err := sched.Check(g, asg.Order, topo.Capacity(1))
	if err != nil {
		var ce *sched.CapacityError
		if errors.As(err, &ce) {
			return nil, &PlayError{Reason: fmt.Sprintf("register capacity %d too small for in-degree %d of vertex %d",
				topo.Capacity(1), ce.InDegree, ce.Vertex)}
		}
		return nil, &PlayError{Reason: err.Error()}
	}
	for _, p := range asg.Proc {
		if p < 0 || p >= topo.Processors() {
			return nil, &PlayError{Reason: fmt.Sprintf("processor %d out of range", p)}
		}
	}

	game, err := NewGame(g, topo)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	// Hoist the predecessor CSR once: the schedule loop below replays each
	// scheduled vertex's row three times per step, and the rows are identical
	// to g.Pred(v) in content and order.
	predOff, predVal := g.PredecessorCSR()
	pl := &player{game: game, g: g, topo: topo, uses: uses, fetched: -1}
	pl.dead = make([]bool, n)
	for v := 0; v < n; v++ {
		pl.dead[v] = pl.computeDead(cdag.VertexID(v))
	}
	total := 0
	pl.unitBase = make([]int, topo.NumLevels())
	for l := 0; l < topo.NumLevels(); l++ {
		pl.unitBase[l] = total
		total += topo.Units(l + 1)
	}
	pl.units = make([]iheap.PriorityHeap, total)
	for i := range pl.units {
		pl.units[i].Init(n)
	}
	pl.stepPins.stamps = make([]int32, n)
	pl.onePin.stamps = make([]int32, n)

	// Execute the schedule.
	for i, v := range asg.Order {
		if i&4095 == 0 {
			fault.Inject(fault.PointPRBWPlay)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		proc := asg.Proc[i]
		// One row slice serves every predecessor pass of this step.
		preds := predVal[predOff[v]:predOff[v+1]]
		pins := pl.newStepPins(preds)
		for _, p := range preds {
			if err := pl.fetchToRegisters(p, proc, pins); err != nil {
				return nil, err
			}
		}
		// Values consumed for the last time by this step stop mattering once
		// the step holds them all: dropping one earlier would let a later
		// fetch evict its only copy.
		pl.fetched = i
		for _, p := range preds {
			if uses.Last(p) == i {
				pl.refreshDead(p)
			}
		}
		regs := Loc{Level: 1, Unit: proc}
		if err := pl.ensureCapacity(regs, pins); err != nil {
			return nil, err
		}
		if err := game.Compute(proc, v); err != nil {
			return nil, err
		}
		pl.touch(regs, v)
		pl.refreshDead(v)
		pl.clock++
		// Free dead values in the register file immediately (no data movement).
		for _, p := range preds {
			pl.dropIfDead(regs, p)
		}
		pl.dropIfDead(regs, v)
	}

	// Make outputs durable (blue) and touch never-used inputs so the RBW
	// completion condition (white everywhere) holds.
	if err := pl.finalize(); err != nil {
		return nil, err
	}
	if !game.IsComplete() {
		return nil, &PlayError{Reason: "game incomplete after schedule: " + game.Incomplete()}
	}
	return game.Snapshot(), nil
}

// newStepPins stamps the predecessors of the current compute step and returns
// the pin set over them.
func (pl *player) newStepPins(preds []cdag.VertexID) pinSet {
	pl.stepPins.epoch++
	for _, p := range preds {
		pl.stepPins.stamps[p] = pl.stepPins.epoch
	}
	return pl.stepPins
}

// pinOnly returns the pin set holding v alone, or the empty set when v is
// cdag.InvalidVertex.
func (pl *player) pinOnly(v cdag.VertexID) pinSet {
	pl.onePin.epoch++
	if v != cdag.InvalidVertex {
		pl.onePin.stamps[v] = pl.onePin.epoch
	}
	return pl.onePin
}

func (pl *player) unit(at Loc) *iheap.PriorityHeap {
	return &pl.units[pl.unitBase[at.Level-1]+at.Unit]
}

// touch records a use of v in the unit at the current clock, inserting it
// when absent.
func (pl *player) touch(at Loc, v cdag.VertexID) {
	key := -pl.clock
	if pl.dead[v] {
		key += deadKey
	}
	pl.unit(at).Update(v, key)
}

// computeDead evaluates the eviction-deadness predicate from the game state:
// losing one copy of v is free when a blue pebble backs it, another pebble of
// it exists, or no later compute step consumes it and it is not an output
// still awaiting its blue pebble.
func (pl *player) computeDead(v cdag.VertexID) bool {
	if pl.game.HasBlue(v) {
		return true
	}
	if len(pl.game.Locations(v)) > 1 {
		return true
	}
	return pl.uses.Last(v) <= pl.fetched && !pl.g.IsOutput(v)
}

// refreshDead re-evaluates the deadness of v and, when it flipped, moves the
// key of v by ±deadKey in every unit whose heap holds it.  It must be called
// after every move that can change the predicate: pebble placements and
// deletions (copy count), blue placements, and last-use transitions.  A
// victim being evicted has already left its unit's heap, so that unit is
// skipped.
func (pl *player) refreshDead(v cdag.VertexID) {
	d := pl.computeDead(v)
	if d == pl.dead[v] {
		return
	}
	pl.dead[v] = d
	shift := int64(deadKey)
	if !d {
		shift = -deadKey
	}
	for _, loc := range pl.game.Locations(v) {
		h := pl.unit(loc)
		if key, ok := h.Priority(v); ok {
			h.Update(v, key+shift)
		}
	}
}

// dropIfDead deletes the pebble of v at the unit when its value no longer
// matters or survives elsewhere.
func (pl *player) dropIfDead(at Loc, v cdag.VertexID) {
	if !pl.game.HasPebbleAt(v, at) {
		return
	}
	if !pl.dead[v] {
		return
	}
	if err := pl.game.Delete(at, v); err == nil {
		pl.unit(at).Remove(v)
		pl.refreshDead(v)
	}
}

// ensureCapacity frees pebbles in the unit until a new placement fits,
// evicting least-recently-touched victims and preserving values that would
// otherwise be lost by pushing them one level toward memory (or to the
// backing store at level L).
func (pl *player) ensureCapacity(at Loc, pinned pinSet) error {
	for !pl.game.hasFree(at) {
		victim, err := pl.chooseVictim(at, pinned)
		if err != nil {
			return err
		}
		if err := pl.evict(at, victim, pinned); err != nil {
			return err
		}
	}
	return nil
}

// chooseVictim removes from the unit's heap, and returns, the first value in
// eviction order that is not pinned.
func (pl *player) chooseVictim(at Loc, pinned pinSet) (cdag.VertexID, error) {
	v, _, ok := pl.unit(at).PopMaxUnpinned(pinned.stamps, pinned.epoch)
	if !ok {
		return cdag.InvalidVertex, &PlayError{
			Reason: fmt.Sprintf("storage unit %v full with pinned values (capacity %d too small)",
				at, pl.topo.Capacity(at.Level))}
	}
	return v, nil
}

// evict deletes v, already out of the unit's heap, from the unit, first
// copying it toward memory when it is the last live copy of a value that
// still matters.  The pinned set is propagated so that values protected by
// an in-flight fetch are never displaced from the path while making room for
// the copy.
func (pl *player) evict(at Loc, v cdag.VertexID, pinned pinSet) error {
	if !pl.dead[v] {
		if at.Level == pl.topo.NumLevels() {
			// Push to the backing store.
			if err := pl.game.Output(at.Unit, v); err != nil {
				return err
			}
			pl.refreshDead(v)
		} else {
			parent := Loc{Level: at.Level + 1, Unit: pl.topo.Parent(at.Level, at.Unit)}
			if !pl.game.HasPebbleAt(v, parent) {
				if err := pl.ensureCapacity(parent, pinned); err != nil {
					return err
				}
				if err := pl.game.MoveDown(parent.Level, parent.Unit, v); err != nil {
					return err
				}
				pl.touch(parent, v)
				pl.refreshDead(v)
			}
		}
	}
	if err := pl.game.Delete(at, v); err != nil {
		return err
	}
	pl.refreshDead(v)
	return nil
}

// fetchToRegisters brings the value of u into the register unit of proc,
// moving it through every level of the processor's storage path and using a
// remote get or backing-store load when no copy exists on the path.  The
// value u itself is protected from eviction while the fetch is in flight; at
// level 1 the step's pins, which include u, also protect the other operands.
func (pl *player) fetchToRegisters(u cdag.VertexID, proc int, stepPins pinSet) error {
	L := pl.topo.NumLevels()
	regs := Loc{Level: 1, Unit: proc}
	if pl.game.HasPebbleAt(u, regs) {
		pl.touch(regs, u)
		return nil
	}
	protect := pl.pinOnly(u)

	// Find the lowest level on the path already holding the value.
	found := 0
	for l := 1; l <= L; l++ {
		at := Loc{Level: l, Unit: pl.topo.UnitOnPath(l, proc)}
		if pl.game.HasPebbleAt(u, at) {
			found = l
			break
		}
	}
	if found == 0 {
		node := pl.topo.NodeOf(proc)
		memLoc := Loc{Level: L, Unit: node}
		// Locate (or create) a level-L copy of u somewhere in the machine.
		srcNode := pl.levelLNode(u)
		if srcNode < 0 && !pl.game.HasBlue(u) {
			// The value only lives in caches/registers off the path: push it
			// up to the main memory of the node that holds it.
			if err := pl.raiseToNodeMemory(u, protect); err != nil {
				return err
			}
			srcNode = pl.levelLNode(u)
		}
		if srcNode != node {
			if err := pl.ensureCapacity(memLoc, protect); err != nil {
				return err
			}
			switch {
			case srcNode >= 0:
				if err := pl.game.RemoteGet(node, u); err != nil {
					return err
				}
			case pl.game.HasBlue(u):
				if err := pl.game.Input(node, u); err != nil {
					return err
				}
			default:
				return &PlayError{Reason: fmt.Sprintf("value of vertex %d lost (no pebble, no blue)", u)}
			}
		}
		pl.touch(memLoc, u)
		pl.refreshDead(u)
		found = L
	}
	// Walk the value down the path toward the registers.
	for l := found - 1; l >= 1; l-- {
		at := Loc{Level: l, Unit: pl.topo.UnitOnPath(l, proc)}
		if pl.game.HasPebbleAt(u, at) {
			pl.touch(at, u)
			continue
		}
		pin := protect
		if l == 1 {
			pin = stepPins
		}
		if err := pl.ensureCapacity(at, pin); err != nil {
			return err
		}
		if err := pl.game.MoveUp(l, at.Unit, u); err != nil {
			return err
		}
		pl.touch(at, u)
		pl.refreshDead(u)
	}
	return nil
}

// levelLNode returns the node whose main memory holds a pebble of u, or −1.
func (pl *player) levelLNode(u cdag.VertexID) int {
	L := pl.topo.NumLevels()
	for _, loc := range pl.game.Locations(u) {
		if loc.Level == L {
			return loc.Unit
		}
	}
	return -1
}

// raiseToNodeMemory pushes some existing pebble of u up to the main memory of
// the node that holds it, so that it can be remote-fetched or walked down the
// requesting processor's path.
func (pl *player) raiseToNodeMemory(u cdag.VertexID, pinned pinSet) error {
	locs := pl.game.Locations(u)
	if len(locs) == 0 {
		return &PlayError{Reason: fmt.Sprintf("value of vertex %d lost (no pebble, no blue)", u)}
	}
	// Pick the highest-level existing pebble to minimize the number of moves.
	best := locs[0]
	for _, l := range locs {
		if l.Level > best.Level {
			best = l
		}
	}
	L := pl.topo.NumLevels()
	cur := best
	for cur.Level < L {
		parent := Loc{Level: cur.Level + 1, Unit: pl.topo.Parent(cur.Level, cur.Unit)}
		if !pl.game.HasPebbleAt(u, parent) {
			if err := pl.ensureCapacity(parent, pinned); err != nil {
				return err
			}
			if err := pl.game.MoveDown(parent.Level, parent.Unit, u); err != nil {
				return err
			}
			pl.touch(parent, u)
			pl.refreshDead(u)
		}
		cur = parent
	}
	return nil
}

// finalize stores outputs to the backing store and touches never-consumed
// inputs so that the completion conditions hold.
func (pl *player) finalize() error {
	L := pl.topo.NumLevels()
	for _, v := range pl.g.Outputs() {
		if pl.game.HasBlue(v) {
			continue
		}
		if len(pl.game.Locations(v)) == 0 {
			return &PlayError{Reason: fmt.Sprintf("output %d lost before final store", v)}
		}
		if err := pl.raiseToNodeMemory(v, pl.pinOnly(v)); err != nil {
			return err
		}
		node := pl.levelLNode(v)
		if node < 0 {
			return &PlayError{Reason: fmt.Sprintf("output %d could not reach node memory", v)}
		}
		if err := pl.game.Output(node, v); err != nil {
			return err
		}
		pl.refreshDead(v)
	}
	for _, v := range pl.g.Inputs() {
		if pl.game.HasWhite(v) {
			continue
		}
		memLoc := Loc{Level: L, Unit: 0}
		if err := pl.ensureCapacity(memLoc, pl.pinOnly(cdag.InvalidVertex)); err != nil {
			return err
		}
		// The transient load-and-discard never enters the recency heap,
		// mirroring the reference player.
		if err := pl.game.Input(0, v); err != nil {
			return err
		}
		if err := pl.game.Delete(memLoc, v); err != nil {
			return err
		}
	}
	return nil
}

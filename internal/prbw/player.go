package prbw

import (
	"context"
	"fmt"
	"runtime/debug"

	"cdagio/internal/cdag"
	"cdagio/internal/fault"
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
	order := make([]cdag.VertexID, 0, g.NumOperations())
	for _, v := range g.MustTopoOrder() {
		if !g.IsInput(v) {
			order = append(order, v)
		}
	}
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
	order := make([]cdag.VertexID, 0, g.NumOperations())
	procs := make([]int, 0, g.NumOperations())
	for _, v := range g.MustTopoOrder() {
		if g.IsInput(v) {
			continue
		}
		order = append(order, v)
		p := 0
		if int(v) < len(owner) && owner[v] >= 0 {
			p = owner[v]
		}
		procs = append(procs, p)
	}
	return Assignment{Order: order, Proc: procs}
}

// PlayError reports why a distributed schedule could not be executed.
type PlayError struct{ Reason string }

func (e *PlayError) Error() string { return "prbw: " + e.Reason }

// validateAssignment checks that the assignment schedules every non-input
// vertex exactly once in dependence order on a valid processor, and that the
// register capacity can hold any vertex together with its predecessors.  It
// sweeps every predecessor row, so it reads the hoisted CSR arrays directly.
func validateAssignment(g *cdag.Graph, topo Topology, asg Assignment) error {
	n := g.NumVertices()
	predOff, predVal := g.PredecessorCSR()
	position := make([]int, n)
	for i := range position {
		position[i] = -1
	}
	for i, v := range asg.Order {
		if !g.ValidVertex(v) {
			return &PlayError{Reason: fmt.Sprintf("vertex %d out of range", v)}
		}
		if g.IsInput(v) {
			return &PlayError{Reason: fmt.Sprintf("input vertex %d scheduled", v)}
		}
		if position[v] >= 0 {
			return &PlayError{Reason: fmt.Sprintf("vertex %d scheduled twice", v)}
		}
		if asg.Proc[i] < 0 || asg.Proc[i] >= topo.Processors() {
			return &PlayError{Reason: fmt.Sprintf("processor %d out of range", asg.Proc[i])}
		}
		position[v] = i
	}
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		if g.IsInput(id) {
			continue
		}
		if position[v] < 0 {
			return &PlayError{Reason: fmt.Sprintf("vertex %d missing from schedule", v)}
		}
		if indeg := int(predOff[v+1] - predOff[v]); indeg+1 > topo.Capacity(1) {
			return &PlayError{Reason: fmt.Sprintf("register capacity %d too small for in-degree %d of vertex %d",
				topo.Capacity(1), indeg, v)}
		}
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			if !g.IsInput(p) && position[p] > position[v] {
				return &PlayError{Reason: fmt.Sprintf("vertex %d scheduled before predecessor %d", v, p)}
			}
		}
	}
	return nil
}

// pinSet is an allocation-free membership set of vertices protected from
// eviction: an epoch-stamped scratch array shared by all sets of the current
// compute step, plus at most one extra vertex (the value being fetched).  The
// zero value is unusable; build instances with the player helpers.
type pinSet struct {
	stamps []int32
	epoch  int32
	extra  cdag.VertexID
}

func (p pinSet) has(v cdag.VertexID) bool {
	return v == p.extra || (p.stamps != nil && p.stamps[v] == p.epoch)
}

// noPins returns the empty pin set.
func noPins() pinSet { return pinSet{extra: cdag.InvalidVertex} }

// player carries the bookkeeping of one PlayCtx run.  Unlike the reference
// player it keeps no per-unit maps and allocates nothing per compute step:
// recency and deadness live in dense per-vertex arrays and per-unit indexed
// heaps, and pinned sets are epoch stamps.
type player struct {
	game *Game
	g    *cdag.Graph
	topo Topology
	asg  Assignment

	pos   int   // current schedule position
	clock int64 // compute steps executed so far; the touch timestamp

	// lastUseAt[v] is the last schedule position consuming v (−1 when none);
	// noMoreUses[v] flips exactly when the schedule passes that position,
	// mirroring the reference player's nextUse(pos) comparison.
	lastUseAt  []int32
	noMoreUses []bool
	// dead[v] caches whether losing one copy of v costs nothing: a copy
	// exists elsewhere, a blue pebble backs it, or no later step needs it.
	// It is the per-vertex predicate the eviction heaps order by, refreshed
	// incrementally after every game move that can flip it.
	dead []bool
	// heapDead[v] is the deadness the eviction heaps are currently ordered
	// by.  Truth (dead) and heap view (heapDead) may diverge between game
	// moves: refreshDead only records flipped vertices in pending, and
	// flushPending re-sifts them — one vertex at a time, so each Fix repairs
	// a single stale key — right before the next victim choice, the only
	// point where heap order is consulted.  Batching the fix-ups this way
	// collapses the repeated flip/unflip churn of multi-eviction steps into
	// at most one Fix per vertex per victim choice without changing any
	// chosen victim: every PeekMin/PopMin still runs with heapDead == dead.
	heapDead    []bool
	pending     []cdag.VertexID
	pendingMark []bool

	units    []evictHeap // per storage unit, indexed unitBase[level-1]+unit
	unitBase []int

	pinStamp []int32
	pinEpoch int32

	stashV []cdag.VertexID // chooseVictim scratch for skipping pinned entries
	stashT []int64
}

// PlayCtx executes the assignment on g over the topology and returns the
// resulting data-movement statistics of a complete legal P-RBW game.  The
// assignment must schedule every non-input vertex exactly once in dependence
// order, and the register capacity must exceed the largest in-degree.
//
// The player's eviction order is that of the map-based reference player its
// tests pin it against (dead values first, then least recently touched, ties
// by vertex ID), but it chooses each victim in O(log capacity) instead of
// scanning the unit, and performs no per-step allocations.
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
	if err := validateAssignment(g, topo, asg); err != nil {
		return nil, err
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
	pl := &player{game: game, g: g, topo: topo, asg: asg}
	pl.lastUseAt = make([]int32, n)
	for v := range pl.lastUseAt {
		pl.lastUseAt[v] = -1
	}
	for i, v := range asg.Order {
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			pl.lastUseAt[p] = int32(i)
		}
	}
	pl.noMoreUses = make([]bool, n)
	pl.dead = make([]bool, n)
	pl.heapDead = make([]bool, n)
	pl.pendingMark = make([]bool, n)
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		pl.noMoreUses[v] = pl.lastUseAt[v] < 0
		pl.dead[v] = pl.computeDead(id)
		pl.heapDead[v] = pl.dead[v]
	}
	total := 0
	pl.unitBase = make([]int, topo.NumLevels())
	for l := 0; l < topo.NumLevels(); l++ {
		pl.unitBase[l] = total
		total += topo.Units(l + 1)
	}
	pl.units = make([]evictHeap, total)
	for i := range pl.units {
		pl.units[i].Init(n)
	}
	pl.pinStamp = make([]int32, n)

	// Execute the schedule.
	for i, v := range asg.Order {
		if i&4095 == 0 {
			fault.Inject(fault.PointPRBWPlay)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pl.pos = i
		proc := asg.Proc[i]
		// One row slice serves every predecessor pass of this step.
		preds := predVal[predOff[v]:predOff[v+1]]
		// Values consumed for the last time by this step stop mattering now
		// (the reference player's nextUse skips uses at the current position).
		for _, p := range preds {
			if pl.lastUseAt[p] == int32(i) && !pl.noMoreUses[p] {
				pl.noMoreUses[p] = true
				pl.refreshDead(p)
			}
		}
		pins := pl.newStepPins(preds)
		for _, p := range preds {
			if err := pl.fetchToRegisters(p, proc, pins); err != nil {
				return nil, err
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

// newStepPins stamps the predecessors of the current compute step into the
// shared scratch array and returns the pin set over them.
func (pl *player) newStepPins(preds []cdag.VertexID) pinSet {
	pl.pinEpoch++
	for _, p := range preds {
		pl.pinStamp[p] = pl.pinEpoch
	}
	return pinSet{stamps: pl.pinStamp, epoch: pl.pinEpoch, extra: cdag.InvalidVertex}
}

func (pl *player) unit(at Loc) *evictHeap {
	return &pl.units[pl.unitBase[at.Level-1]+at.Unit]
}

func (pl *player) touch(at Loc, v cdag.VertexID) {
	pl.unit(at).Update(v, pl.clock, pl.heapDead)
}

func (pl *player) untouch(at Loc, v cdag.VertexID) {
	pl.unit(at).Remove(v, pl.heapDead)
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
	return pl.noMoreUses[v] && !pl.g.IsOutput(v)
}

// refreshDead re-evaluates the deadness of v and, when it flipped, updates
// the truth array and queues v for a deferred heap fix-up.  It must be called
// after every move that can change the predicate: pebble placements and
// deletions (copy count), blue placements, and last-use transitions.  The
// heaps themselves are repaired lazily by flushPending, so a vertex whose
// deadness flips several times between victim choices (evict chains touch a
// value at every level) costs one queue entry instead of a heap sift per
// flip — and none at all when the flips cancel out.
func (pl *player) refreshDead(v cdag.VertexID) {
	d := pl.computeDead(v)
	if d == pl.dead[v] {
		return
	}
	pl.dead[v] = d
	if !pl.pendingMark[v] {
		pl.pendingMark[v] = true
		pl.pending = append(pl.pending, v)
	}
}

// flushPending reconciles the heaps' deadness view with the truth array,
// re-sifting each flipped vertex in every unit currently holding it.  Flips
// are applied one vertex at a time — heapDead is written immediately before
// the Fix calls for that vertex — so every Fix is a valid single-stale-key
// heap repair and the heaps are exact w.r.t. heapDead throughout.  After the
// flush heapDead equals dead, which is the invariant chooseVictim relies on:
// the (dead, last touch, vertex id) comparator is a strict total order, so
// with equal key arrays the heap minimum is unique and the chosen victims —
// and with them the whole game — are bit-identical to eager fix-ups.
func (pl *player) flushPending() {
	if len(pl.pending) == 0 {
		return
	}
	for _, v := range pl.pending {
		pl.pendingMark[v] = false
		if pl.heapDead[v] == pl.dead[v] {
			continue // flipped an even number of times: nothing to repair
		}
		pl.heapDead[v] = pl.dead[v]
		for _, loc := range pl.game.Locations(v) {
			pl.unit(loc).Fix(v, pl.heapDead)
		}
	}
	pl.pending = pl.pending[:0]
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
		pl.untouch(at, v)
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

// chooseVictim returns the unit's eviction-preference minimum that is not
// pinned: the heap root in the common case, otherwise the first unpinned
// entry in heap order (pinned entries are popped into a small stash and
// pushed back).
func (pl *player) chooseVictim(at Loc, pinned pinSet) (cdag.VertexID, error) {
	pl.flushPending()
	h := pl.unit(at)
	if v, ok := h.PeekMin(); ok && !pinned.has(v) {
		return v, nil
	}
	stV, stT := pl.stashV[:0], pl.stashT[:0]
	victim := cdag.InvalidVertex
	var victimT int64
	for h.Size() > 0 {
		v, t := h.PopMin(pl.heapDead)
		if pinned.has(v) {
			stV = append(stV, v)
			stT = append(stT, t)
			continue
		}
		victim, victimT = v, t
		break
	}
	if victim != cdag.InvalidVertex {
		h.Update(victim, victimT, pl.heapDead)
	}
	for k := range stV {
		h.Update(stV[k], stT[k], pl.heapDead)
	}
	pl.stashV, pl.stashT = stV, stT
	if victim == cdag.InvalidVertex {
		return cdag.InvalidVertex, &PlayError{
			Reason: fmt.Sprintf("storage unit %v full with pinned values (capacity %d too small)",
				at, pl.topo.Capacity(at.Level))}
	}
	return victim, nil
}

// evict removes v from the unit, first copying it toward memory when it is
// the last live copy of a value that still matters.  The pinned set is
// propagated so that values protected by an in-flight fetch are never
// displaced from the path while making room for the copy.
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
	pl.untouch(at, v)
	pl.refreshDead(v)
	return nil
}

// fetchToRegisters brings the value of u into the register unit of proc,
// moving it through every level of the processor's storage path and using a
// remote get or backing-store load when no copy exists on the path.  The
// value u itself is protected from eviction while the fetch is in flight, in
// addition to the caller's pinned set (the predecessors already resident in
// the registers).
func (pl *player) fetchToRegisters(u cdag.VertexID, proc int, stepPins pinSet) error {
	L := pl.topo.NumLevels()
	regs := Loc{Level: 1, Unit: proc}
	if pl.game.HasPebbleAt(u, regs) {
		pl.touch(regs, u)
		return nil
	}
	// Protect u along the whole path; at level 1 additionally protect the
	// other already-fetched predecessors.
	protect := pinSet{extra: u}
	level1Pin := pinSet{stamps: stepPins.stamps, epoch: stepPins.epoch, extra: u}

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
			pin = level1Pin
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
	pl.pos = len(pl.asg.Order)
	L := pl.topo.NumLevels()
	for _, v := range pl.g.Outputs() {
		if pl.game.HasBlue(v) {
			continue
		}
		if len(pl.game.Locations(v)) == 0 {
			return &PlayError{Reason: fmt.Sprintf("output %d lost before final store", v)}
		}
		if err := pl.raiseToNodeMemory(v, pinSet{extra: v}); err != nil {
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
		if err := pl.ensureCapacity(memLoc, noPins()); err != nil {
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

package prbw

import (
	"fmt"

	"cdagio/internal/cdag"
)

// PlayReference executes the assignment exactly like PlayCtx but with the
// straightforward bookkeeping the optimized player replaced: per-unit
// map[vertex]clock recency tables scanned in full on every eviction, and
// freshly allocated pinned-vertex maps on every compute step and fetch.  It is
// the executable specification of the player's eviction semantics — tests
// assert that PlayCtx produces byte-identical statistics, and benchmarks
// measure the win of the dense rewrite against it.
func PlayReference(g *cdag.Graph, topo Topology, asg Assignment) (*Stats, error) {
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
	// Even the reference player hoists the predecessor CSR: the rows are
	// identical to g.Pred(v), and reading them directly keeps the measured
	// PlayCtx-vs-PlayReference gap about eviction bookkeeping, not facade calls.
	predOff, predVal := g.PredecessorCSR()
	pl := &refPlayer{game: game, g: g, topo: topo, asg: asg,
		uses: make([][]int, n), usePtr: make([]int, n)}
	for i, v := range asg.Order {
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			pl.uses[p] = append(pl.uses[p], i)
		}
	}
	pl.touched = make([][]map[cdag.VertexID]int64, topo.NumLevels())
	for l := range pl.touched {
		pl.touched[l] = make([]map[cdag.VertexID]int64, topo.Units(l+1))
		for u := range pl.touched[l] {
			pl.touched[l][u] = make(map[cdag.VertexID]int64)
		}
	}

	// Execute the schedule.
	for i, v := range asg.Order {
		pl.pos = i
		proc := asg.Proc[i]
		preds := predVal[predOff[v]:predOff[v+1]]
		pinned := make(map[cdag.VertexID]bool, len(preds)+1)
		for _, p := range preds {
			pinned[p] = true
		}
		for _, p := range preds {
			if err := pl.fetchToRegisters(p, proc, pinned); err != nil {
				return nil, err
			}
		}
		regs := Loc{Level: 1, Unit: proc}
		if err := pl.ensureCapacity(regs, pinned); err != nil {
			return nil, err
		}
		if err := game.Compute(proc, v); err != nil {
			return nil, err
		}
		pl.touch(regs, v)
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

// refPlayer carries the bookkeeping of one PlayReference run.
type refPlayer struct {
	game *Game
	g    *cdag.Graph
	topo Topology
	asg  Assignment

	uses    [][]int // schedule positions consuming each vertex
	usePtr  []int
	pos     int // current schedule position
	clock   int64
	touched [][]map[cdag.VertexID]int64 // per level, per unit: last touch time
}

func (pl *refPlayer) touch(at Loc, v cdag.VertexID) {
	pl.touched[at.Level-1][at.Unit][v] = pl.clock
}

func (pl *refPlayer) untouch(at Loc, v cdag.VertexID) {
	delete(pl.touched[at.Level-1][at.Unit], v)
}

// nextUse returns the next schedule position that consumes v after the
// current position, or a large sentinel when there is none.
const never = int(^uint(0) >> 1)

func (pl *refPlayer) nextUse(v cdag.VertexID) int {
	for pl.usePtr[v] < len(pl.uses[v]) && pl.uses[v][pl.usePtr[v]] <= pl.pos {
		pl.usePtr[v]++
	}
	if pl.usePtr[v] < len(pl.uses[v]) {
		return pl.uses[v][pl.usePtr[v]]
	}
	return never
}

// valueMatters reports whether losing the last copy of v would be incorrect:
// v is still needed by a later compute step or must eventually carry a blue
// pebble as an output.
func (pl *refPlayer) valueMatters(v cdag.VertexID) bool {
	if pl.nextUse(v) != never {
		return true
	}
	return pl.g.IsOutput(v) && !pl.game.HasBlue(v)
}

// dropIfDead deletes the pebble of v at the unit when its value no longer
// matters or survives elsewhere.
func (pl *refPlayer) dropIfDead(at Loc, v cdag.VertexID) {
	if !pl.game.HasPebbleAt(v, at) {
		return
	}
	if pl.valueMatters(v) && len(pl.game.Locations(v)) == 1 && !pl.game.HasBlue(v) {
		return
	}
	if err := pl.game.Delete(at, v); err == nil {
		pl.untouch(at, v)
	}
}

// ensureCapacity frees pebbles in the unit until a new placement fits,
// evicting least-recently-touched victims and preserving values that would
// otherwise be lost by pushing them one level toward memory (or to the
// backing store at level L).
func (pl *refPlayer) ensureCapacity(at Loc, pinned map[cdag.VertexID]bool) error {
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

func (pl *refPlayer) chooseVictim(at Loc, pinned map[cdag.VertexID]bool) (cdag.VertexID, error) {
	var best cdag.VertexID = cdag.InvalidVertex
	bestDead := false
	var bestTime int64
	for v, t := range pl.touched[at.Level-1][at.Unit] {
		if pinned[v] {
			continue
		}
		dead := !pl.valueMatters(v) || len(pl.game.Locations(v)) > 1 || pl.game.HasBlue(v)
		// Prefer dead values, then the least recently touched, and break the
		// remaining ties by vertex ID so eviction is deterministic despite
		// the map iteration order.
		if best == cdag.InvalidVertex ||
			(dead && !bestDead) ||
			(dead == bestDead && (t < bestTime || (t == bestTime && v < best))) {
			best, bestDead, bestTime = v, dead, t
		}
	}
	if best == cdag.InvalidVertex {
		return cdag.InvalidVertex, &PlayError{
			Reason: fmt.Sprintf("storage unit %v full with pinned values (capacity %d too small)",
				at, pl.topo.Capacity(at.Level))}
	}
	return best, nil
}

// evict removes v from the unit, first copying it toward memory when it is
// the last live copy of a value that still matters.  The pinned set is
// propagated so that values protected by an in-flight fetch are never
// displaced from the path while making room for the copy.
func (pl *refPlayer) evict(at Loc, v cdag.VertexID, pinned map[cdag.VertexID]bool) error {
	needsCopy := pl.valueMatters(v) && len(pl.game.Locations(v)) == 1 && !pl.game.HasBlue(v)
	if needsCopy {
		if at.Level == pl.topo.NumLevels() {
			// Push to the backing store.
			if err := pl.game.Output(at.Unit, v); err != nil {
				return err
			}
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
			}
		}
	}
	if err := pl.game.Delete(at, v); err != nil {
		return err
	}
	pl.untouch(at, v)
	return nil
}

// fetchToRegisters brings the value of u into the register unit of proc,
// moving it through every level of the processor's storage path and using a
// remote get or backing-store load when no copy exists on the path.  The
// value u itself is protected from eviction while the fetch is in flight, in
// addition to the caller's pinned set (the predecessors already resident in
// the registers).
func (pl *refPlayer) fetchToRegisters(u cdag.VertexID, proc int, pinned map[cdag.VertexID]bool) error {
	L := pl.topo.NumLevels()
	regs := Loc{Level: 1, Unit: proc}
	if pl.game.HasPebbleAt(u, regs) {
		pl.touch(regs, u)
		return nil
	}
	// Protect u along the whole path; at level 1 additionally protect the
	// other already-fetched predecessors.
	protect := map[cdag.VertexID]bool{u: true}
	level1Pin := make(map[cdag.VertexID]bool, len(pinned)+1)
	for v := range pinned {
		level1Pin[v] = true
	}
	level1Pin[u] = true

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
		srcNode := -1
		for _, loc := range pl.game.Locations(u) {
			if loc.Level == L {
				srcNode = loc.Unit
				break
			}
		}
		if srcNode < 0 && !pl.game.HasBlue(u) {
			// The value only lives in caches/registers off the path: push it
			// up to the main memory of the node that holds it.
			if err := pl.raiseToNodeMemory(u, protect); err != nil {
				return err
			}
			for _, loc := range pl.game.Locations(u) {
				if loc.Level == L {
					srcNode = loc.Unit
					break
				}
			}
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
	}
	return nil
}

// raiseToNodeMemory pushes some existing pebble of u up to the main memory of
// the node that holds it, so that it can be remote-fetched or walked down the
// requesting processor's path.
func (pl *refPlayer) raiseToNodeMemory(u cdag.VertexID, pinned map[cdag.VertexID]bool) error {
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
		}
		cur = parent
	}
	return nil
}

// finalize stores outputs to the backing store and touches never-consumed
// inputs so that the completion conditions hold.
func (pl *refPlayer) finalize() error {
	pl.pos = len(pl.asg.Order)
	L := pl.topo.NumLevels()
	for _, v := range pl.g.Outputs() {
		if pl.game.HasBlue(v) {
			continue
		}
		if len(pl.game.Locations(v)) == 0 {
			return &PlayError{Reason: fmt.Sprintf("output %d lost before final store", v)}
		}
		if err := pl.raiseToNodeMemory(v, map[cdag.VertexID]bool{v: true}); err != nil {
			return err
		}
		var node int = -1
		for _, loc := range pl.game.Locations(v) {
			if loc.Level == L {
				node = loc.Unit
				break
			}
		}
		if node < 0 {
			return &PlayError{Reason: fmt.Sprintf("output %d could not reach node memory", v)}
		}
		if err := pl.game.Output(node, v); err != nil {
			return err
		}
	}
	for _, v := range pl.g.Inputs() {
		if pl.game.HasWhite(v) {
			continue
		}
		memLoc := Loc{Level: L, Unit: 0}
		if err := pl.ensureCapacity(memLoc, nil); err != nil {
			return err
		}
		if err := pl.game.Input(0, v); err != nil {
			return err
		}
		if err := pl.game.Delete(memLoc, v); err != nil {
			return err
		}
	}
	return nil
}

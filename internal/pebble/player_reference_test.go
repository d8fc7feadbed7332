package pebble

import (
	"context"
	"fmt"

	"cdagio/internal/cdag"
)

// playScheduleReference executes the schedule exactly like PlayScheduleCtx
// but picks each eviction victim the straightforward way the heap player
// replaced: it mirrors the red set in a dense list and scans every red pebble,
// scoring each one, on every eviction (O(S) per eviction, and a list sized by
// S).  It is the executable specification of the player's victim order —
// tests assert that PlayScheduleCtx returns identical Results, traces
// included.
func playScheduleReference(ctx context.Context, g *cdag.Graph, variant Variant, s int, order []cdag.VertexID,
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
	n := g.NumVertices()
	// Every traversal below replays predecessor rows, so hoist the flat CSR
	// arrays once: the rows are identical to g.Pred(v) in content and order,
	// without the per-call facade overhead.
	predOff, predVal := g.PredecessorCSR()
	// Validate the schedule: every non-input exactly once, dependencies first.
	position := make([]int, n)
	for i := range position {
		position[i] = -1
	}
	for i, v := range order {
		if !g.ValidVertex(v) {
			return Result{}, &ScheduleError{Reason: fmt.Sprintf("vertex %d out of range", v)}
		}
		if g.IsInput(v) {
			return Result{}, &ScheduleError{Reason: fmt.Sprintf("input vertex %d scheduled for compute", v)}
		}
		if position[v] >= 0 {
			return Result{}, &ScheduleError{Reason: fmt.Sprintf("vertex %d scheduled twice", v)}
		}
		position[v] = i
	}
	scheduled := 0
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		if g.IsInput(id) {
			continue
		}
		if position[v] < 0 {
			return Result{}, &ScheduleError{Reason: fmt.Sprintf("vertex %d missing from schedule", v)}
		}
		scheduled++
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			if !g.IsInput(p) && position[p] > position[v] {
				return Result{}, &ScheduleError{
					Reason: fmt.Sprintf("vertex %d scheduled before its predecessor %d", v, p)}
			}
		}
		if indeg := int(predOff[v+1] - predOff[v]); indeg+1 > s {
			return Result{}, &ScheduleError{
				Reason: fmt.Sprintf("S=%d too small: vertex %d has in-degree %d", s, v, indeg)}
		}
	}
	if scheduled != len(order) {
		return Result{}, &ScheduleError{Reason: "schedule length does not match non-input vertex count"}
	}

	// uses lists the schedule positions consuming each vertex, in increasing
	// order, as one flat CSR table (useList[useStart[v]:useStart[v+1]]).
	useStart := make([]int32, n+1)
	for _, v := range order {
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			useStart[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		useStart[v+1] += useStart[v]
	}
	useList := make([]int32, useStart[n])
	fill := make([]int32, n)
	for i, v := range order {
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			useList[useStart[p]+fill[p]] = int32(i)
			fill[p]++
		}
	}
	usePtr := fill // reuse as cursors, reset to zero
	for v := range usePtr {
		usePtr[v] = 0
	}
	lastUse := make([]int, n)

	// The red set mirrored as a dense list, so evictions scan the values
	// actually resident instead of the whole vertex bitmap.
	redList := make([]cdag.VertexID, 0, s+1)
	redPos := make([]int32, n)
	for v := range redPos {
		redPos[v] = -1
	}
	redAdd := func(v cdag.VertexID) {
		redPos[v] = int32(len(redList))
		redList = append(redList, v)
	}
	redRemove := func(v cdag.VertexID) {
		i := redPos[v]
		last := len(redList) - 1
		redList[i] = redList[last]
		redPos[redList[i]] = i
		redList = redList[:last]
		redPos[v] = -1
	}

	// Pinned sets as epoch stamps over a shared scratch array.
	pinStamp := make([]int32, n)
	pinEpoch := int32(0)

	game := NewGame(g, variant, s, record)
	clock := 0

	// nextUse returns the next schedule position that consumes v strictly
	// after position i, or a sentinel when v is no longer needed.
	const never = int(^uint(0) >> 1)
	nextUse := func(v cdag.VertexID, i int) int {
		for usePtr[v] < useStart[v+1]-useStart[v] && int(useList[useStart[v]+usePtr[v]]) <= i {
			usePtr[v]++
		}
		if usePtr[v] < useStart[v+1]-useStart[v] {
			return int(useList[useStart[v]+usePtr[v]])
		}
		return never
	}
	needsPreserve := func(v cdag.VertexID, i int) bool {
		if nextUse(v, i) != never {
			return true
		}
		return g.IsOutput(v) && !game.HasBlue(v)
	}

	// evictOne frees a red pebble, avoiding pinned vertices.  It stores the
	// victim first when its value would otherwise be lost.  Ties in the
	// eviction score resolve to the smallest vertex ID, exactly like the
	// original increasing-order scan of the red bitmap.
	evictOne := func(i int) error {
		var victim cdag.VertexID = cdag.InvalidVertex
		victimScore := -1
		victimFree := false
		for _, v := range redList {
			if pinStamp[v] == pinEpoch {
				continue
			}
			free := !needsPreserve(v, i)
			var score int
			if free {
				score = never
			} else {
				switch policy {
				case LRU:
					score = clock - lastUse[v]
				default: // Belady
					score = nextUse(v, i)
					if g.IsOutput(v) && !game.HasBlue(v) && score == never {
						// Output needed only for the final store: cheapest to
						// evict among preserved vertices.
						score = never - 1
					}
				}
			}
			if free && !victimFree {
				victim, victimScore, victimFree = v, score, true
				continue
			}
			if free == victimFree && (score > victimScore || (score == victimScore && v < victim)) {
				victim, victimScore = v, score
			}
		}
		if victim == cdag.InvalidVertex {
			return &ScheduleError{Reason: fmt.Sprintf("S=%d too small at schedule position %d: all red pebbles pinned", s, i)}
		}
		if !victimFree && !game.HasBlue(victim) {
			if err := game.Apply(Move{Store, victim}); err != nil {
				return err
			}
		}
		if err := game.Apply(Move{Delete, victim}); err != nil {
			return err
		}
		redRemove(victim)
		return nil
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
			redAdd(p)
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
		redAdd(v)
		lastUse[v] = clock
		moves++
		clock++
		// Drop values that are dead from here on (free, no I/O).
		for _, p := range preds {
			if game.HasRed(p) && !needsPreserve(p, i) {
				if err := game.Apply(Move{Delete, p}); err != nil {
					return Result{}, err
				}
				redRemove(p)
			}
		}
		if game.HasRed(v) && !needsPreserve(v, i) {
			if err := game.Apply(Move{Delete, v}); err != nil {
				return Result{}, err
			}
			redRemove(v)
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

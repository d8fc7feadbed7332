package pebble

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"cdagio/internal/cdag"
	"cdagio/internal/iheap"
)

// ErrTooLarge is returned by OptimalIOCtx when the CDAG exceeds the size the
// exact solver supports.
var ErrTooLarge = errors.New("pebble: CDAG too large for exact optimal search")

// ErrSearchBudget is returned when the state-space search exceeds the
// configured budget before proving optimality.
var ErrSearchBudget = errors.New("pebble: optimal search exceeded its state budget")

// OptimalOptions configures the exact search.
type OptimalOptions struct {
	// MaxStates bounds the number of distinct states settled by the search.
	// Zero selects a default of 2,000,000.
	MaxStates int
}

// gameState is a compact encoding of a pebble-game configuration for graphs
// with at most 64 vertices.
type gameState struct {
	red   uint64
	white uint64
	blue  uint64
}

// stateQueue is the Dijkstra frontier over game states: an arena of the
// states behind a shared min-cost heap of (cost, arena index) pairs
// (internal/iheap.CostHeap, the concrete heap also backing the memsim and
// P-RBW players).  Pushes append a 24-byte state to the arena and two words
// to the heap — no per-state boxing through container/heap interfaces —
// and pops are deterministic (cost ties broken by insertion order).
type stateQueue struct {
	arena []gameState
	heap  iheap.CostHeap
}

func (q *stateQueue) push(st gameState, cost int) {
	q.arena = append(q.arena, st)
	q.heap.Push(int64(cost), int32(len(q.arena)-1))
}

func (q *stateQueue) pop() (gameState, int, bool) {
	cost, idx, ok := q.heap.PopMin()
	if !ok {
		return gameState{}, 0, false
	}
	return q.arena[idx], int(cost), true
}

// OptimalIOCtx computes the exact minimum number of I/O operations of a
// complete pebble game on g with s red pebbles, by Dijkstra search over the
// game's state space (loads and stores cost 1, computes and deletes cost 0).
//
// The search is exponential in general; it is intended for the small CDAGs
// (≲ 20 vertices) used to validate the lower-bound machinery.  Graphs with
// more than 64 vertices are rejected with ErrTooLarge, and searches that
// exceed opts.MaxStates settled states fail with ErrSearchBudget.
//
// ctx bounds the search: it is checked every 1024 settled states (individual
// state expansions stay atomic), and ctx.Err() is returned promptly once the
// context is cancelled.
func OptimalIOCtx(ctx context.Context, g *cdag.Graph, variant Variant, s int, opts OptimalOptions) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := g.NumVertices()
	if n > 64 {
		return 0, fmt.Errorf("%w: %d vertices (max 64)", ErrTooLarge, n)
	}
	if s < 1 {
		return 0, errors.New("pebble: need at least one red pebble")
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 2_000_000
	}

	var inputMask, outputMask, allMask uint64
	preds := make([]uint64, n)
	hasSucc := make([]bool, n)
	succOff, _, predOff, predVal := g.AdjacencyCSR()
	for v := 0; v < n; v++ {
		id := cdag.VertexID(v)
		allMask |= 1 << uint(v)
		if g.IsInput(id) {
			inputMask |= 1 << uint(v)
		}
		if g.IsOutput(id) {
			outputMask |= 1 << uint(v)
		}
		for _, p := range predVal[predOff[v]:predOff[v+1]] {
			preds[v] |= 1 << uint(p)
		}
		hasSucc[v] = succOff[v+1] > succOff[v]
	}

	isGoal := func(st gameState) bool {
		if st.blue&outputMask != outputMask {
			return false
		}
		if variant == RBW {
			return st.white == allMask
		}
		// Hong-Kung: every non-input vertex must have fired at least once.
		return st.white&^inputMask == allMask&^inputMask
	}

	start := gameState{blue: inputMask}
	dist := map[gameState]int{start: 0}
	pq := &stateQueue{}
	pq.push(start, 0)
	settled := 0

	for {
		st, cost, ok := pq.pop()
		if !ok {
			break
		}
		if d, ok := dist[st]; ok && cost > d {
			continue
		}
		if isGoal(st) {
			return cost, nil
		}
		settled++
		if settled > maxStates {
			return 0, fmt.Errorf("%w: settled %d states", ErrSearchBudget, settled)
		}
		if settled&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}

		relax := func(next gameState, c int) {
			if d, ok := dist[next]; !ok || c < d {
				dist[next] = c
				pq.push(next, c)
			}
		}

		redCount := bits.OnesCount64(st.red)
		for v := 0; v < n; v++ {
			bit := uint64(1) << uint(v)
			hasRed := st.red&bit != 0
			// Load.
			if !hasRed && st.blue&bit != 0 && redCount < s {
				next := st
				next.red |= bit
				if variant == RBW {
					next.white |= bit
				}
				relax(next, cost+1)
			}
			// Store (skip when already blue: it would never help).
			if hasRed && st.blue&bit == 0 {
				next := st
				next.blue |= bit
				relax(next, cost+1)
			}
			// Compute.
			if !hasRed && inputMask&bit == 0 && redCount < s &&
				st.red&preds[v] == preds[v] &&
				!(variant == RBW && st.white&bit != 0) {
				next := st
				next.red |= bit
				next.white |= bit
				relax(next, cost)
			}
			// Delete.
			if hasRed {
				next := st
				next.red &^= bit
				relax(next, cost)
			}
		}
	}
	return 0, errors.New("pebble: no complete game exists (is S large enough for every in-degree?)")
}

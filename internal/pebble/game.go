// Package pebble implements the sequential pebble games of the paper: the
// original Hong–Kung red-blue pebble game (Definition 2) and the
// Red-Blue-White game (Definition 4) that forbids recomputation and allows
// flexible input/output tagging.
//
// The package provides three layers:
//
//   - Game: a rule-checking state machine.  Every move is validated against
//     the game definition, so any sequence of successful Apply calls is a
//     legal (partial) game and the I/O count it reports is trustworthy.
//   - PlayScheduleCtx: a deterministic player that executes a given vertex
//     schedule with S red pebbles and a Belady or LRU eviction policy,
//     producing a complete legal game.  Its I/O count is an upper bound on
//     the CDAG's I/O complexity.
//   - OptimalIOCtx: an exact solver (Dijkstra over game states) for small CDAGs,
//     used to validate the lower-bound machinery end to end.
package pebble

import (
	"fmt"

	"cdagio/internal/cdag"
)

// Variant selects which pebble-game rule set a Game enforces.
type Variant int

const (
	// HongKung is the original red-blue pebble game: recomputation of a
	// vertex is allowed and completion requires blue pebbles on all outputs.
	HongKung Variant = iota
	// RBW is the Red-Blue-White game: each vertex may be computed only once
	// (white pebbles record firing), and completion requires white pebbles on
	// all vertices plus blue pebbles on all outputs.
	RBW
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case HongKung:
		return "red-blue (Hong-Kung)"
	case RBW:
		return "red-blue-white"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// MoveKind identifies a pebble-game rule.
type MoveKind int

const (
	// Load places a red pebble on a vertex holding a blue pebble (rule R1).
	Load MoveKind = iota
	// Store places a blue pebble on a vertex holding a red pebble (rule R2).
	Store
	// Compute fires a vertex whose predecessors all hold red pebbles (rule R3).
	Compute
	// Delete removes a red pebble (rule R4).
	Delete
)

// String returns the move-kind name.
func (k MoveKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Compute:
		return "compute"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("MoveKind(%d)", int(k))
	}
}

// Move is one step of a pebble game.
type Move struct {
	Kind MoveKind
	V    cdag.VertexID
}

// String renders the move.
func (m Move) String() string { return fmt.Sprintf("%s(%d)", m.Kind, m.V) }

// Game is a rule-checking pebble-game state machine on a fixed CDAG.
type Game struct {
	graph   *cdag.Graph
	variant Variant
	s       int

	// Hoisted predecessor CSR of graph: the R3 rule check runs once per
	// Compute move, so it reads the flat row directly instead of calling
	// graph.Pred per move.  Valid because the graph's structure is fixed for
	// the lifetime of a game (NewGame materializes it).
	predOff []int64
	predVal []cdag.VertexID

	red   *cdag.VertexSet
	blue  *cdag.VertexSet
	white *cdag.VertexSet

	loads  int
	stores int

	record bool
	trace  []Move
}

// NewGame returns a fresh game on g with S red pebbles.  Blue pebbles are
// placed on all input-tagged vertices.  When record is true the full move
// trace is retained (useful for small games and debugging; large simulations
// should leave it off).  The graph's structure must stay fixed while the
// game is played: NewGame compiles and caches its adjacency.
func NewGame(g *cdag.Graph, variant Variant, s int, record bool) *Game {
	if s < 1 {
		panic("pebble: need at least one red pebble")
	}
	game := &Game{
		graph:   g,
		variant: variant,
		s:       s,
		red:     cdag.NewVertexSet(g.NumVertices()),
		blue:    cdag.NewVertexSet(g.NumVertices()),
		white:   cdag.NewVertexSet(g.NumVertices()),
		record:  record,
	}
	game.predOff, game.predVal = g.PredecessorCSR()
	for _, v := range g.Inputs() {
		game.blue.Add(v)
	}
	return game
}

// Graph returns the CDAG the game is played on.
func (game *Game) Graph() *cdag.Graph { return game.graph }

// Variant returns the rule set in force.
func (game *Game) Variant() Variant { return game.variant }

// RedInUse returns the number of vertices currently holding a red pebble.
func (game *Game) RedInUse() int { return game.red.Len() }

// HasRed reports whether v currently holds a red pebble.
func (game *Game) HasRed(v cdag.VertexID) bool { return game.red.Contains(v) }

// HasBlue reports whether v currently holds a blue pebble.
func (game *Game) HasBlue(v cdag.VertexID) bool { return game.blue.Contains(v) }

// HasWhite reports whether v has been fired (holds a white pebble).
func (game *Game) HasWhite(v cdag.VertexID) bool { return game.white.Contains(v) }

// Loads returns the number of R1 moves applied so far.
func (game *Game) Loads() int { return game.loads }

// Stores returns the number of R2 moves applied so far.
func (game *Game) Stores() int { return game.stores }

// IO returns the total number of I/O moves (loads + stores) so far.
func (game *Game) IO() int { return game.loads + game.stores }

// Trace returns the recorded moves (nil unless recording was requested).
func (game *Game) Trace() []Move { return game.trace }

// IllegalMoveError reports a move that violates the game rules.
type IllegalMoveError struct {
	Move   Move
	Reason string
}

func (e *IllegalMoveError) Error() string {
	return fmt.Sprintf("pebble: illegal move %v: %s", e.Move, e.Reason)
}

func (game *Game) illegal(m Move, reason string) error {
	return &IllegalMoveError{Move: m, Reason: reason}
}

// Apply validates and applies one move.  On error the game state is
// unchanged.
func (game *Game) Apply(m Move) error {
	if !game.graph.ValidVertex(m.V) {
		return game.illegal(m, "vertex out of range")
	}
	switch m.Kind {
	case Load:
		if !game.blue.Contains(m.V) {
			return game.illegal(m, "no blue pebble to load from")
		}
		if game.red.Contains(m.V) {
			return game.illegal(m, "vertex already holds a red pebble")
		}
		if game.red.Len() >= game.s {
			return game.illegal(m, "no free red pebble")
		}
		game.red.Add(m.V)
		if game.variant == RBW {
			game.white.Add(m.V)
		}
		game.loads++
	case Store:
		if !game.red.Contains(m.V) {
			return game.illegal(m, "no red pebble to store from")
		}
		game.blue.Add(m.V)
		game.stores++
	case Compute:
		if game.graph.IsInput(m.V) {
			return game.illegal(m, "input vertices cannot be computed")
		}
		if game.variant == RBW && game.white.Contains(m.V) {
			return game.illegal(m, "vertex already fired (recomputation forbidden in RBW)")
		}
		if game.red.Contains(m.V) {
			return game.illegal(m, "vertex already holds a red pebble")
		}
		for _, p := range game.predVal[game.predOff[m.V]:game.predOff[m.V+1]] {
			if !game.red.Contains(p) {
				return game.illegal(m, fmt.Sprintf("predecessor %d lacks a red pebble", p))
			}
		}
		if game.red.Len() >= game.s {
			return game.illegal(m, "no free red pebble")
		}
		game.red.Add(m.V)
		game.white.Add(m.V)
	case Delete:
		if !game.red.Contains(m.V) {
			return game.illegal(m, "no red pebble to delete")
		}
		game.red.Remove(m.V)
	default:
		return game.illegal(m, "unknown move kind")
	}
	if game.record {
		game.trace = append(game.trace, m)
	}
	return nil
}

// IsComplete reports whether the game has reached a final state:
//
//   - Hong–Kung: every output-tagged vertex holds a blue pebble and every
//     non-input vertex has been fired at least once;
//   - RBW: every vertex holds a white pebble and every output-tagged vertex
//     holds a blue pebble.
func (game *Game) IsComplete() bool {
	for _, v := range game.graph.Outputs() {
		if !game.blue.Contains(v) {
			return false
		}
	}
	switch game.variant {
	case RBW:
		return game.white.Len() == game.graph.NumVertices()
	default:
		for v := 0; v < game.graph.NumVertices(); v++ {
			id := cdag.VertexID(v)
			if !game.graph.IsInput(id) && !game.white.Contains(id) {
				return false
			}
		}
		return true
	}
}

// Incomplete explains why the game is not complete, or returns "" when it is.
func (game *Game) Incomplete() string {
	for _, v := range game.graph.Outputs() {
		if !game.blue.Contains(v) {
			return fmt.Sprintf("output %d has no blue pebble", v)
		}
	}
	if game.variant == RBW {
		if game.white.Len() != game.graph.NumVertices() {
			return fmt.Sprintf("%d vertices not fired", game.graph.NumVertices()-game.white.Len())
		}
		return ""
	}
	for v := 0; v < game.graph.NumVertices(); v++ {
		id := cdag.VertexID(v)
		if !game.graph.IsInput(id) && !game.white.Contains(id) {
			return fmt.Sprintf("vertex %d never fired", id)
		}
	}
	return ""
}

// Result summarizes a completed game.
type Result struct {
	Variant Variant
	S       int
	Loads   int
	Stores  int
	Moves   int
	Trace   []Move
}

// IO returns the total I/O count of the result.
func (r Result) IO() int { return r.Loads + r.Stores }

// String renders a short summary.
func (r Result) String() string {
	return fmt.Sprintf("%s game, S=%d: %d loads + %d stores = %d I/O",
		r.Variant, r.S, r.Loads, r.Stores, r.IO())
}

// result builds a Result snapshot from the game.
func (game *Game) result(moves int) Result {
	return Result{
		Variant: game.variant,
		S:       game.s,
		Loads:   game.loads,
		Stores:  game.stores,
		Moves:   moves,
		Trace:   game.trace,
	}
}

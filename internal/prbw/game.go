package prbw

import (
	"fmt"

	"cdagio/internal/cdag"
)

// Loc identifies one storage unit: a hierarchy level (1-based, level 1 being
// the registers) and the unit index within that level.
type Loc struct {
	Level int
	Unit  int
}

// String renders the location.
func (l Loc) String() string { return fmt.Sprintf("L%d.%d", l.Level, l.Unit) }

// Game is a rule-checking state machine for the Parallel Red-Blue-White
// pebble game (Definition 6).  All moves are validated; the per-unit counters
// therefore reflect a legal game and can be used directly for data-movement
// accounting.
type Game struct {
	graph *cdag.Graph
	topo  Topology

	// Hoisted predecessor CSR of graph: the R6 rule check runs once per
	// compute step, so it reads the flat row directly instead of calling
	// graph.Pred per move.  Valid because the graph's structure is fixed for
	// the lifetime of a game (NewGame materializes it).
	predOff []int64
	predVal []cdag.VertexID

	// held[v] lists the storage units currently holding a pebble of v.
	held [][]Loc
	// load[level-1][unit] is the number of pebbles currently in that unit.
	load [][]int

	blue  *cdag.VertexSet
	white *cdag.VertexSet

	// Counters, indexed like load.
	moveUpsInto   [][]int64 // R4 placements into a unit (value came from its parent)
	moveDownsInto [][]int64 // R5 placements into a unit (value came from a child)
	inputsAt      []int64   // R1 per node
	outputsAt     []int64   // R2 per node
	remoteGetsAt  []int64   // R3 per destination node
	computesBy    []int64   // R6 per processor
}

// NewGame creates a game on g over the given topology.  Blue pebbles are
// placed on all input-tagged vertices.  The graph's structure must stay
// fixed while the game is played: NewGame compiles and caches its adjacency.
func NewGame(g *cdag.Graph, topo Topology) (*Game, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	game := &Game{
		graph: g,
		topo:  topo,
		held:  make([][]Loc, g.NumVertices()),
		blue:  cdag.NewVertexSet(g.NumVertices()),
		white: cdag.NewVertexSet(g.NumVertices()),
	}
	game.predOff, game.predVal = g.PredecessorCSR()
	// Carve every vertex's location list out of one backing array: a value
	// rarely holds more than a couple of pebbles at once (its level path is
	// walked with intermediate copies dropped eagerly, plus remote copies on
	// multi-node machines), so this removes the per-vertex allocation on
	// first placement.  Vertices that do exceed the inline capacity fall back
	// to ordinary append growth.
	inline := 2
	if topo.Nodes() > 1 {
		inline = 4
	}
	backing := make([]Loc, inline*g.NumVertices())
	for v := range game.held {
		game.held[v] = backing[inline*v : inline*v : inline*(v+1)]
	}
	game.load = make([][]int, topo.NumLevels())
	game.moveUpsInto = make([][]int64, topo.NumLevels())
	game.moveDownsInto = make([][]int64, topo.NumLevels())
	for l := 0; l < topo.NumLevels(); l++ {
		game.load[l] = make([]int, topo.Levels[l].Units)
		game.moveUpsInto[l] = make([]int64, topo.Levels[l].Units)
		game.moveDownsInto[l] = make([]int64, topo.Levels[l].Units)
	}
	game.inputsAt = make([]int64, topo.Nodes())
	game.outputsAt = make([]int64, topo.Nodes())
	game.remoteGetsAt = make([]int64, topo.Nodes())
	game.computesBy = make([]int64, topo.Processors())
	for _, v := range g.Inputs() {
		game.blue.Add(v)
	}
	return game, nil
}

// Graph returns the CDAG being pebbled.
func (game *Game) Graph() *cdag.Graph { return game.graph }

// Topology returns the storage hierarchy.
func (game *Game) Topology() Topology { return game.topo }

// HasBlue reports whether v holds a blue pebble.
func (game *Game) HasBlue(v cdag.VertexID) bool { return game.blue.Contains(v) }

// HasWhite reports whether v has been fired.
func (game *Game) HasWhite(v cdag.VertexID) bool { return game.white.Contains(v) }

// HasPebbleAt reports whether v holds a pebble in the given unit.
func (game *Game) HasPebbleAt(v cdag.VertexID, at Loc) bool {
	for _, l := range game.held[v] {
		if l == at {
			return true
		}
	}
	return false
}

// Locations returns the storage units currently holding pebbles of v.  The
// slice is owned by the game; callers must not modify it.
func (game *Game) Locations(v cdag.VertexID) []Loc { return game.held[v] }

// RuleError reports a move that violates the P-RBW rules.
type RuleError struct {
	Rule   string
	Reason string
}

func (e *RuleError) Error() string { return fmt.Sprintf("prbw: %s: %s", e.Rule, e.Reason) }

func (game *Game) checkLoc(rule string, at Loc) error {
	if at.Level < 1 || at.Level > game.topo.NumLevels() {
		return &RuleError{Rule: rule, Reason: fmt.Sprintf("level %d out of range", at.Level)}
	}
	if at.Unit < 0 || at.Unit >= game.topo.Units(at.Level) {
		return &RuleError{Rule: rule, Reason: fmt.Sprintf("unit %d out of range at level %d", at.Unit, at.Level)}
	}
	return nil
}

func (game *Game) checkVertex(rule string, v cdag.VertexID) error {
	if !game.graph.ValidVertex(v) {
		return &RuleError{Rule: rule, Reason: fmt.Sprintf("vertex %d out of range", v)}
	}
	return nil
}

func (game *Game) place(v cdag.VertexID, at Loc) {
	game.held[v] = append(game.held[v], at)
	game.load[at.Level-1][at.Unit]++
}

func (game *Game) hasFree(at Loc) bool {
	return game.load[at.Level-1][at.Unit] < game.topo.Capacity(at.Level)
}

// Input applies rule R1: place a level-L pebble of the given node on a vertex
// holding a blue pebble, marking the vertex fired.
func (game *Game) Input(node int, v cdag.VertexID) error {
	at := Loc{Level: game.topo.NumLevels(), Unit: node}
	if err := game.checkVertex("R1 input", v); err != nil {
		return err
	}
	if err := game.checkLoc("R1 input", at); err != nil {
		return err
	}
	if !game.blue.Contains(v) {
		return &RuleError{Rule: "R1 input", Reason: fmt.Sprintf("vertex %d has no blue pebble", v)}
	}
	if game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R1 input", Reason: fmt.Sprintf("vertex %d already pebbled at %v", v, at)}
	}
	if !game.hasFree(at) {
		return &RuleError{Rule: "R1 input", Reason: fmt.Sprintf("no free pebble in %v", at)}
	}
	game.place(v, at)
	game.white.Add(v)
	game.inputsAt[node]++
	return nil
}

// Output applies rule R2: place a blue pebble on a vertex holding a level-L
// pebble of the given node.
func (game *Game) Output(node int, v cdag.VertexID) error {
	at := Loc{Level: game.topo.NumLevels(), Unit: node}
	if err := game.checkVertex("R2 output", v); err != nil {
		return err
	}
	if err := game.checkLoc("R2 output", at); err != nil {
		return err
	}
	if !game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R2 output", Reason: fmt.Sprintf("vertex %d has no level-L pebble at node %d", v, node)}
	}
	game.blue.Add(v)
	game.outputsAt[node]++
	return nil
}

// RemoteGet applies rule R3: place a level-L pebble of the destination node
// on a vertex already holding a level-L pebble at some other node.
func (game *Game) RemoteGet(dstNode int, v cdag.VertexID) error {
	L := game.topo.NumLevels()
	at := Loc{Level: L, Unit: dstNode}
	if err := game.checkVertex("R3 remote get", v); err != nil {
		return err
	}
	if err := game.checkLoc("R3 remote get", at); err != nil {
		return err
	}
	if game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R3 remote get", Reason: fmt.Sprintf("vertex %d already present at node %d", v, dstNode)}
	}
	src := false
	for _, l := range game.held[v] {
		if l.Level == L && l.Unit != dstNode {
			src = true
			break
		}
	}
	if !src {
		return &RuleError{Rule: "R3 remote get", Reason: fmt.Sprintf("vertex %d has no level-L pebble at another node", v)}
	}
	if !game.hasFree(at) {
		return &RuleError{Rule: "R3 remote get", Reason: fmt.Sprintf("no free pebble in %v", at)}
	}
	game.place(v, at)
	game.remoteGetsAt[dstNode]++
	return nil
}

// MoveUp applies rule R4: place a level-l pebble (l < L) of the given unit on
// a vertex that holds a level-(l+1) pebble in the unit's parent.
func (game *Game) MoveUp(level, unit int, v cdag.VertexID) error {
	at := Loc{Level: level, Unit: unit}
	if err := game.checkVertex("R4 move up", v); err != nil {
		return err
	}
	if err := game.checkLoc("R4 move up", at); err != nil {
		return err
	}
	if level >= game.topo.NumLevels() {
		return &RuleError{Rule: "R4 move up", Reason: "cannot move up into the last level"}
	}
	parent := Loc{Level: level + 1, Unit: game.topo.Parent(level, unit)}
	if !game.HasPebbleAt(v, parent) {
		return &RuleError{Rule: "R4 move up", Reason: fmt.Sprintf("vertex %d not present in parent %v", v, parent)}
	}
	if game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R4 move up", Reason: fmt.Sprintf("vertex %d already present at %v", v, at)}
	}
	if !game.hasFree(at) {
		return &RuleError{Rule: "R4 move up", Reason: fmt.Sprintf("no free pebble in %v", at)}
	}
	game.place(v, at)
	game.moveUpsInto[level-1][unit]++
	return nil
}

// MoveDown applies rule R5: place a level-l pebble (l > 1) of the given unit
// on a vertex that holds a level-(l−1) pebble in one of the unit's children.
func (game *Game) MoveDown(level, unit int, v cdag.VertexID) error {
	at := Loc{Level: level, Unit: unit}
	if err := game.checkVertex("R5 move down", v); err != nil {
		return err
	}
	if err := game.checkLoc("R5 move down", at); err != nil {
		return err
	}
	if level <= 1 {
		return &RuleError{Rule: "R5 move down", Reason: "cannot move down into level 1"}
	}
	childHolds := false
	for _, l := range game.held[v] {
		if l.Level == level-1 && game.topo.Parent(level-1, l.Unit) == unit {
			childHolds = true
			break
		}
	}
	if !childHolds {
		return &RuleError{Rule: "R5 move down", Reason: fmt.Sprintf("vertex %d not present in any child of %v", v, at)}
	}
	if game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R5 move down", Reason: fmt.Sprintf("vertex %d already present at %v", v, at)}
	}
	if !game.hasFree(at) {
		return &RuleError{Rule: "R5 move down", Reason: fmt.Sprintf("no free pebble in %v", at)}
	}
	game.place(v, at)
	game.moveDownsInto[level-1][unit]++
	return nil
}

// Compute applies rule R6: fire a vertex on processor proc.  Every
// predecessor must hold a level-1 pebble in proc's register unit, the vertex
// must not have fired before, and the register unit needs a free pebble.
func (game *Game) Compute(proc int, v cdag.VertexID) error {
	if err := game.checkVertex("R6 compute", v); err != nil {
		return err
	}
	if proc < 0 || proc >= game.topo.Processors() {
		return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("processor %d out of range", proc)}
	}
	at := Loc{Level: 1, Unit: proc}
	if game.graph.IsInput(v) {
		return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("vertex %d is an input", v)}
	}
	if game.white.Contains(v) {
		return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("vertex %d already fired", v)}
	}
	for _, p := range game.predVal[game.predOff[v]:game.predOff[v+1]] {
		if !game.HasPebbleAt(p, at) {
			return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("predecessor %d not in registers of processor %d", p, proc)}
		}
	}
	if game.HasPebbleAt(v, at) {
		return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("vertex %d already pebbled at %v", v, at)}
	}
	if !game.hasFree(at) {
		return &RuleError{Rule: "R6 compute", Reason: fmt.Sprintf("no free register on processor %d", proc)}
	}
	game.place(v, at)
	game.white.Add(v)
	game.computesBy[proc]++
	return nil
}

// Delete applies rule R7: remove the pebble of v held by the given unit.
func (game *Game) Delete(at Loc, v cdag.VertexID) error {
	if err := game.checkVertex("R7 delete", v); err != nil {
		return err
	}
	if err := game.checkLoc("R7 delete", at); err != nil {
		return err
	}
	for i, l := range game.held[v] {
		if l == at {
			game.held[v] = append(game.held[v][:i], game.held[v][i+1:]...)
			game.load[at.Level-1][at.Unit]--
			return nil
		}
	}
	return &RuleError{Rule: "R7 delete", Reason: fmt.Sprintf("vertex %d has no pebble at %v", v, at)}
}

// IsComplete reports whether every vertex has fired and every output holds a
// blue pebble.
func (game *Game) IsComplete() bool {
	if game.white.Len() != game.graph.NumVertices() {
		return false
	}
	for _, v := range game.graph.Outputs() {
		if !game.blue.Contains(v) {
			return false
		}
	}
	return true
}

// Incomplete explains why the game is not yet complete ("" when it is).
func (game *Game) Incomplete() string {
	if game.white.Len() != game.graph.NumVertices() {
		return fmt.Sprintf("%d vertices not fired", game.graph.NumVertices()-game.white.Len())
	}
	for _, v := range game.graph.Outputs() {
		if !game.blue.Contains(v) {
			return fmt.Sprintf("output %d has no blue pebble", v)
		}
	}
	return ""
}

package sched_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/memsim"
	"cdagio/internal/pebble"
	"cdagio/internal/prbw"
	"cdagio/internal/sched"
)

// fuzzGraph is a fixed 10-vertex CDAG: inputs 0, 1 and 2 (2 dangling), a
// computed source 8 and outputs 6 and 9.
func fuzzGraph() *cdag.Graph {
	g := cdag.NewGraph("fuzz", 10)
	g.AddVertices(10)
	for _, e := range [][2]cdag.VertexID{{0, 3}, {1, 3}, {1, 4}, {3, 5}, {4, 5}, {3, 6}, {5, 7}, {6, 7}, {7, 9}, {8, 9}, {4, 9}} {
		g.AddEdge(e[0], e[1])
	}
	for _, v := range []cdag.VertexID{0, 1, 2} {
		g.TagInput(v)
	}
	g.TagOutput(6)
	g.TagOutput(9)
	g.Freeze()
	return g
}

// fuzzOrder turns each byte into a vertex ID in [-2, 10], so out-of-range IDs
// on both sides occur.
func fuzzOrder(data []byte) []cdag.VertexID {
	order := make([]cdag.VertexID, len(data))
	for i, b := range data {
		order[i] = cdag.VertexID(int(b)%13 - 2)
	}
	return order
}

// bruteAccepts is the definition of a legal schedule, checked the slow way:
// as many entries as non-input vertices, each a distinct non-input vertex
// listed after every non-input predecessor.
func bruteAccepts(g *cdag.Graph, order []cdag.VertexID) bool {
	if len(order) != g.NumOperations() {
		return false
	}
	for i, v := range order {
		if !g.ValidVertex(v) || g.IsInput(v) || slices.Contains(order[:i], v) {
			return false
		}
		for _, p := range g.Pred(v) {
			if !g.IsInput(p) && !slices.Contains(order[:i], p) {
				return false
			}
		}
	}
	return true
}

// FuzzCheck feeds arbitrary orders of a fixed graph to Check and to the three
// players that call it.  Nothing may panic, Check must accept exactly the
// legal schedules, and with ample capacity each player must accept exactly
// what Check accepts and end each rejection with Check's reason.
func FuzzCheck(f *testing.F) {
	for _, seed := range [][]byte{
		{5, 6, 7, 8, 9, 10, 11},     // 3 4 5 6 7 8 9: a topological order
		{10, 6, 5, 8, 7, 9, 11},     // 8 4 3 6 5 7 9: another
		{5, 6, 7, 8, 9, 10},         // 9 missing
		{5, 5, 7, 8, 9, 10, 11},     // 3 twice
		{2, 5, 6, 7, 8, 9, 10, 11},  // input 0 scheduled
		{7, 6, 5, 8, 9, 10, 11},     // 5 before its predecessor 3
		{5, 6, 7, 8, 9, 10, 11, 12}, // 10 out of range
		{0, 5, 6, 7, 8, 9, 10, 11},  // -2 out of range
		{},
	} {
		f.Add(seed)
	}
	g := fuzzGraph()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		order := fuzzOrder(data)
		_, checkErr := sched.Check(g, order, math.MaxInt)
		if want := bruteAccepts(g, order); (checkErr == nil) != want {
			t.Fatalf("Check(%v) = %v, legal %v", order, checkErr, want)
		}
		_, pebbleErr := pebble.PlayScheduleCtx(ctx, g, pebble.RBW, 16, order, pebble.Belady, false)
		_, memsimErr := memsim.RunCtx(ctx, g, memsim.Config{Nodes: 1, FastWords: 16}, order, nil)
		_, prbwErr := prbw.PlayCtx(ctx, g, prbw.TwoLevel(1, 16, 1<<10),
			prbw.Assignment{Order: order, Proc: make([]int, len(order))})
		for _, p := range []struct {
			name string
			err  error
		}{{"pebble", pebbleErr}, {"memsim", memsimErr}, {"prbw", prbwErr}} {
			switch {
			case (p.err == nil) != (checkErr == nil):
				t.Fatalf("%s on %v: error %v, Check %v", p.name, order, p.err, checkErr)
			case p.err != nil && !strings.HasSuffix(p.err.Error(), checkErr.Error()):
				t.Fatalf("%s on %v: error %q does not end with Check's %q", p.name, order, p.err, checkErr)
			}
		}
	})
}

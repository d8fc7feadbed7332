package iheap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cdagio/internal/cdag"
)

// TestPriorityHeapOrder drives the heap with random updates and removals and
// checks that PopMax drains entries in (priority descending, vertex
// ascending) order — the deterministic victim order the memsim caches rely
// on.
func TestPriorityHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(50)
		var h PriorityHeap
		h.Init(n)
		want := make(map[cdag.VertexID]int64)
		ops := 5 * n
		for o := 0; o < ops; o++ {
			v := cdag.VertexID(rng.Intn(n))
			switch rng.Intn(3) {
			case 0, 1:
				p := int64(rng.Intn(10)) // small range to force ties
				h.Update(v, p)
				want[v] = p
			case 2:
				h.Remove(v)
				delete(want, v)
			}
			if h.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", h.Len(), len(want))
			}
		}
		type entry struct {
			v cdag.VertexID
			p int64
		}
		expect := make([]entry, 0, len(want))
		for v, p := range want {
			if !h.Contains(v) {
				t.Fatalf("Contains(%d) = false for resident vertex", v)
			}
			expect = append(expect, entry{v, p})
		}
		sort.Slice(expect, func(i, j int) bool {
			if expect[i].p != expect[j].p {
				return expect[i].p > expect[j].p
			}
			return expect[i].v < expect[j].v
		})
		if v, p, ok := h.PeekMax(); len(expect) > 0 && (!ok || v != expect[0].v || p != expect[0].p) {
			t.Fatalf("PeekMax = (%d,%d,%v), want (%d,%d)", v, p, ok, expect[0].v, expect[0].p)
		}
		for i, e := range expect {
			v, p, ok := h.PopMax()
			if !ok || v != e.v || p != e.p {
				t.Fatalf("trial %d pop %d: got (%d,%d,%v), want (%d,%d)", trial, i, v, p, ok, e.v, e.p)
			}
		}
		if _, _, ok := h.PopMax(); ok {
			t.Fatalf("PopMax on empty heap reported ok")
		}
	}
}

// drain pops every entry of h in heap order.
func drain(h *PriorityHeap) (vs []cdag.VertexID, ps []int64) {
	for {
		v, p, ok := h.PopMax()
		if !ok {
			return vs, ps
		}
		vs, ps = append(vs, v), append(ps, p)
	}
}

// TestPopMaxUnpinned checks the pinned-skipping pop: it returns the first
// unpinned entry in (priority descending, vertex ascending) order, keeps the
// pinned entries it passed with their priorities, and reports false without
// touching the heap when every entry is pinned.
func TestPopMaxUnpinned(t *testing.T) {
	build := func() *PriorityHeap {
		var h PriorityHeap
		h.Init(8)
		for v, p := range []int64{5, 9, 9, 2, 9, 7, 5, 1} {
			h.Update(cdag.VertexID(v), p)
		}
		return &h
	}
	stamp := make([]int32, 8)

	// Every entry pinned: false, heap unchanged.
	for v := range stamp {
		stamp[v] = 3
	}
	h := build()
	if v, p, ok := h.PopMaxUnpinned(stamp, 3); ok {
		t.Fatalf("all pinned: got (%d,%d,true), want false", v, p)
	}
	gotV, gotP := drain(h)
	wantV, wantP := drain(build())
	if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("all pinned: heap changed to %v/%v, want %v/%v", gotV, gotP, wantV, wantP)
	}

	// Pin the three priority-9 entries and vertex 6: the victim is vertex 5
	// (priority 7); the next pop, with vertex 5 gone, is vertex 0 (priority
	// 5, smaller than 6).  The pinned entries stay, priorities intact.
	for v := range stamp {
		stamp[v] = 0
	}
	stamp[1], stamp[2], stamp[4], stamp[6] = 4, 4, 4, 4
	h = build()
	for _, want := range []cdag.VertexID{5, 0, 3, 7} {
		v, p, ok := h.PopMaxUnpinned(stamp, 4)
		if !ok || v != want {
			t.Fatalf("PopMaxUnpinned = (%d,%d,%v), want vertex %d", v, p, ok, want)
		}
	}
	if _, _, ok := h.PopMaxUnpinned(stamp, 4); ok {
		t.Fatalf("only pinned entries left, but PopMaxUnpinned reported ok")
	}
	gotV, gotP = drain(h)
	if want := []cdag.VertexID{1, 2, 4, 6}; !reflect.DeepEqual(gotV, want) ||
		!reflect.DeepEqual(gotP, []int64{9, 9, 9, 5}) {
		t.Fatalf("pinned entries after the pops: %v/%v, want %v/[9 9 9 5]", gotV, gotP, want)
	}

	// Against a sorted reference on random heaps with random pins.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var h PriorityHeap
		h.Init(n)
		type entry struct {
			v cdag.VertexID
			p int64
		}
		var entries []entry
		for v := 0; v < n; v++ {
			if rng.Intn(4) > 0 {
				p := int64(rng.Intn(6))
				h.Update(cdag.VertexID(v), p)
				entries = append(entries, entry{cdag.VertexID(v), p})
			}
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].p != entries[j].p {
				return entries[i].p > entries[j].p
			}
			return entries[i].v < entries[j].v
		})
		stamp := make([]int32, n)
		for v := range stamp {
			if rng.Intn(3) == 0 {
				stamp[v] = 1
			}
		}
		want := entry{cdag.InvalidVertex, 0}
		for _, e := range entries {
			if stamp[e.v] != 1 {
				want = e
				break
			}
		}
		v, p, ok := h.PopMaxUnpinned(stamp, 1)
		if ok != (want.v != cdag.InvalidVertex) || v != want.v || p != want.p {
			t.Fatalf("trial %d: PopMaxUnpinned = (%d,%d,%v), want (%d,%d)", trial, v, p, ok, want.v, want.p)
		}
		var restV []cdag.VertexID
		var restP []int64
		for _, e := range entries {
			if e.v != v {
				restV, restP = append(restV, e.v), append(restP, e.p)
			}
		}
		if gotV, gotP := drain(&h); !reflect.DeepEqual(gotV, restV) || !reflect.DeepEqual(gotP, restP) {
			t.Fatalf("trial %d: heap after the pop drains %v/%v, want %v/%v", trial, gotV, gotP, restV, restP)
		}
	}
}

// TestEvictHeapDeadFirst checks the EvictHeap victim order: dead entries
// before live ones, then oldest touch, then smallest vertex, with Fix
// re-ranking after a deadness flip.
func TestEvictHeapDeadFirst(t *testing.T) {
	var h EvictHeap
	h.Init(4)
	dead := make([]bool, 4)
	h.Update(2, 10, dead)
	h.Update(0, 5, dead)
	h.Update(1, 5, dead)
	if v, _ := h.PeekMin(); v != 0 {
		t.Fatalf("min = %d, want 0 (oldest touch, smallest id)", v)
	}
	dead[2] = true
	h.Fix(2, dead)
	if v, _ := h.PeekMin(); v != 2 {
		t.Fatalf("min = %d, want dead vertex 2", v)
	}
	h.Remove(2, dead)
	if h.Size() != 2 || h.Contains(2) {
		t.Fatalf("remove failed: size=%d contains=%v", h.Size(), h.Contains(2))
	}
	v, clock := h.PopMin(dead)
	if v != 0 || clock != 5 {
		t.Fatalf("PopMin = (%d,%d), want (0,5)", v, clock)
	}
}

// TestCostHeapOrdering drives CostHeap against a sorted reference: pops must
// come out in (cost asc, item asc) order regardless of push order, including
// duplicate items and interleaved push/pop.
func TestCostHeapOrdering(t *testing.T) {
	var h CostHeap
	pushes := []struct {
		cost int64
		item int32
	}{
		{5, 2}, {1, 9}, {5, 0}, {3, 3}, {1, 1}, {3, 3}, {0, 7}, {5, 1},
	}
	for _, p := range pushes {
		h.Push(p.cost, p.item)
	}
	want := []struct {
		cost int64
		item int32
	}{
		{0, 7}, {1, 1}, {1, 9}, {3, 3}, {3, 3}, {5, 0}, {5, 1}, {5, 2},
	}
	for i, w := range want {
		c, it, ok := h.PopMin()
		if !ok || c != w.cost || it != w.item {
			t.Fatalf("pop %d = (%d, %d, %v), want (%d, %d, true)", i, c, it, ok, w.cost, w.item)
		}
	}
	if _, _, ok := h.PopMin(); ok {
		t.Fatal("pop from empty heap succeeded")
	}
	// Interleaved: push after draining reuses storage.
	h.Push(2, 4)
	h.Push(1, 5)
	if c, it, _ := h.PopMin(); c != 1 || it != 5 {
		t.Fatalf("interleaved pop = (%d, %d)", c, it)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset left entries")
	}
}

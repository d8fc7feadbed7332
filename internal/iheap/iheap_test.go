package iheap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cdagio/internal/cdag"
)

// TestPriorityHeapOrder drives the heap with random updates and removals and
// checks that Priority reports every resident's latest priority and nothing
// for a removed vertex, and that the heap drains in (priority descending,
// vertex ascending) order — the deterministic victim order the players and
// the memsim caches rely on.
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
				if got, ok := h.Priority(v); !ok || got != p {
					t.Fatalf("Priority(%d) after Update(%d) = (%d,%v)", v, p, got, ok)
				}
			case 2:
				h.Remove(v)
				delete(want, v)
				if got, ok := h.Priority(v); ok {
					t.Fatalf("Priority(%d) after Remove = (%d,true), want false", v, got)
				}
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
			if got, ok := h.Priority(v); !h.Contains(v) || !ok || got != p {
				t.Fatalf("resident vertex %d: Contains = %v, Priority = (%d,%v), want %d",
					v, h.Contains(v), got, ok, p)
			}
			expect = append(expect, entry{v, p})
		}
		sort.Slice(expect, func(i, j int) bool {
			if expect[i].p != expect[j].p {
				return expect[i].p > expect[j].p
			}
			return expect[i].v < expect[j].v
		})
		gotV, gotP := drain(&h)
		if len(gotV) != len(expect) {
			t.Fatalf("trial %d: drained %d entries, want %d", trial, len(gotV), len(expect))
		}
		for i, e := range expect {
			if gotV[i] != e.v || gotP[i] != e.p {
				t.Fatalf("trial %d pop %d: got (%d,%d), want (%d,%d)", trial, i, gotV[i], gotP[i], e.v, e.p)
			}
		}
	}
}

// drain pops every entry of h in heap order, with nothing pinned.
func drain(h *PriorityHeap) (vs []cdag.VertexID, ps []int64) {
	unpinned := make([]int32, h.n)
	for {
		v, p, ok := h.PopMaxUnpinned(unpinned, 1)
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
	if h.Len() != 1 {
		t.Fatalf("Len = %d after two pushes and one pop, want 1", h.Len())
	}
}

// Package iheap provides concrete indexed binary heaps over dense vertex IDs.
// Both heaps keep a position index per vertex, so membership tests, targeted
// removals and priority updates are O(1)/O(log n) without the interface
// boxing and interface{} round-trips of container/heap: the eviction paths of
// the schedule players and simulators call these operations once per load and
// once per evict, which makes the dispatch overhead measurable.
//
// EvictHeap is the storage-unit victim heap of the P-RBW schedule player
// (ordered by an external deadness flag, then recency, then vertex ID).
// PriorityHeap is a max-first heap over explicit int64 priorities, with ties
// broken deterministically by smallest vertex ID: it holds the red pebbles of
// the RBW schedule player (package pebble) and the fast memories of the
// memsim cache policies, both of which pop victims past pinned operands.
package iheap

import "cdagio/internal/cdag"

// EvictHeap is an indexed min-heap over the values resident in one storage
// unit, ordered by the eviction preference of the schedule player: dead values
// first (values whose loss costs nothing — a copy exists elsewhere, a blue
// pebble backs them, or no later compute step needs them), then the least
// recently touched, with ties broken by smallest vertex ID.  This is exactly
// the victim order the map-based reference player computes by scanning the
// whole unit; the heap delivers it in O(log capacity) per operation.
//
// Deadness is shared state owned by the player (one flag per vertex, the same
// for every unit holding the vertex) and passed into every operation; the
// player re-sifts the affected entries whenever a flag flips.
type EvictHeap struct {
	verts []cdag.VertexID
	touch []int64
	// pos[v] is the heap position of v, or -1 when absent.  Allocated lazily
	// on the unit's first placement, so untouched units of large topologies
	// cost nothing.
	pos []int32
	n   int
}

// Init sets the vertex universe size.  It must be called before the first
// Update.
func (h *EvictHeap) Init(n int) { h.n = n }

// Size returns the number of entries currently in the heap.
func (h *EvictHeap) Size() int { return len(h.verts) }

// Contains reports whether v is in the heap.
func (h *EvictHeap) Contains(v cdag.VertexID) bool {
	return h.pos != nil && h.pos[v] >= 0
}

func (h *EvictHeap) ensurePos() {
	if h.pos == nil {
		h.pos = make([]int32, h.n)
		for i := range h.pos {
			h.pos[i] = -1
		}
	}
}

// less orders entries by (dead first, oldest touch, smallest vertex).
func (h *EvictHeap) less(i, j int, dead []bool) bool {
	vi, vj := h.verts[i], h.verts[j]
	if dead[vi] != dead[vj] {
		return dead[vi]
	}
	if h.touch[i] != h.touch[j] {
		return h.touch[i] < h.touch[j]
	}
	return vi < vj
}

func (h *EvictHeap) swap(i, j int) {
	h.verts[i], h.verts[j] = h.verts[j], h.verts[i]
	h.touch[i], h.touch[j] = h.touch[j], h.touch[i]
	h.pos[h.verts[i]] = int32(i)
	h.pos[h.verts[j]] = int32(j)
}

func (h *EvictHeap) siftUp(i int, dead []bool) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent, dead) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	return i
}

func (h *EvictHeap) siftDown(i int, dead []bool) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.verts) && h.less(l, smallest, dead) {
			smallest = l
		}
		if r < len(h.verts) && h.less(r, smallest, dead) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// Update records a touch of v at the given clock, inserting it if absent.
func (h *EvictHeap) Update(v cdag.VertexID, clock int64, dead []bool) {
	h.ensurePos()
	if i := h.pos[v]; i >= 0 {
		h.touch[i] = clock
		h.siftDown(h.siftUp(int(i), dead), dead)
		return
	}
	h.verts = append(h.verts, v)
	h.touch = append(h.touch, clock)
	h.pos[v] = int32(len(h.verts) - 1)
	h.siftUp(len(h.verts)-1, dead)
}

// Remove deletes v from the heap; it is a no-op when v is absent.
func (h *EvictHeap) Remove(v cdag.VertexID, dead []bool) {
	if h.pos == nil || h.pos[v] < 0 {
		return
	}
	i := int(h.pos[v])
	last := len(h.verts) - 1
	if i != last {
		h.swap(i, last)
	}
	h.verts = h.verts[:last]
	h.touch = h.touch[:last]
	h.pos[v] = -1
	if i < last {
		h.siftDown(h.siftUp(i, dead), dead)
	}
}

// Fix restores the heap order around v after its dead flag flipped; it is a
// no-op when v is absent.
func (h *EvictHeap) Fix(v cdag.VertexID, dead []bool) {
	if h.pos == nil || h.pos[v] < 0 {
		return
	}
	h.siftDown(h.siftUp(int(h.pos[v]), dead), dead)
}

// PeekMin returns the current victim-preference minimum without removing it.
func (h *EvictHeap) PeekMin() (cdag.VertexID, bool) {
	if len(h.verts) == 0 {
		return cdag.InvalidVertex, false
	}
	return h.verts[0], true
}

// PopMin removes and returns the minimum entry together with its touch clock.
func (h *EvictHeap) PopMin(dead []bool) (cdag.VertexID, int64) {
	v, t := h.verts[0], h.touch[0]
	h.Remove(v, dead)
	return v, t
}

// CostHeap is a plain (non-indexed) binary min-heap over (cost, item) pairs:
// the root is the entry with the smallest cost, ties broken by smallest item
// id — a deterministic total order, unlike container/heap's tie behavior.
// Items are caller-managed int32 handles (indexes into an arena, dense ids),
// so pushes append into two flat slices instead of boxing a per-entry struct
// through an interface.  The exact pebble-game search uses it as the Dijkstra
// frontier over game states: duplicates are allowed, staleness is the
// caller's concern (the usual dist-map check on pop).
type CostHeap struct {
	cost []int64
	item []int32
}

// Len returns the number of entries currently in the heap.
func (h *CostHeap) Len() int { return len(h.cost) }

// Reset empties the heap, keeping its storage.
func (h *CostHeap) Reset() {
	h.cost = h.cost[:0]
	h.item = h.item[:0]
}

// first orders entries root-first: smaller cost, ties by smaller item id.
func (h *CostHeap) first(i, j int) bool {
	if h.cost[i] != h.cost[j] {
		return h.cost[i] < h.cost[j]
	}
	return h.item[i] < h.item[j]
}

func (h *CostHeap) swap(i, j int) {
	h.cost[i], h.cost[j] = h.cost[j], h.cost[i]
	h.item[i], h.item[j] = h.item[j], h.item[i]
}

// Push inserts an entry.
func (h *CostHeap) Push(cost int64, item int32) {
	h.cost = append(h.cost, cost)
	h.item = append(h.item, item)
	i := len(h.cost) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.first(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// PopMin removes and returns the minimum entry; ok is false when the heap is
// empty.
func (h *CostHeap) PopMin() (cost int64, item int32, ok bool) {
	if len(h.cost) == 0 {
		return 0, 0, false
	}
	cost, item = h.cost[0], h.item[0]
	last := len(h.cost) - 1
	h.swap(0, last)
	h.cost = h.cost[:last]
	h.item = h.item[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h.first(l, min) {
			min = l
		}
		if r < last && h.first(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.swap(i, min)
		i = min
	}
	return cost, item, true
}

// PriorityHeap is an indexed binary heap over dense vertex IDs with explicit
// int64 priorities: the root is the entry with the LARGEST priority, ties
// broken by smallest vertex ID (a deterministic total order, unlike the
// container/heap tie behavior it replaces).
type PriorityHeap struct {
	verts []cdag.VertexID
	prio  []int64
	pos   []int32
	n     int
}

// Init sets the vertex universe size.  It must be called before the first
// Update.
func (h *PriorityHeap) Init(n int) { h.n = n }

// Len returns the number of entries currently in the heap.
func (h *PriorityHeap) Len() int { return len(h.verts) }

// Contains reports whether v is in the heap.
func (h *PriorityHeap) Contains(v cdag.VertexID) bool {
	return h.pos != nil && h.pos[v] >= 0
}

func (h *PriorityHeap) ensurePos() {
	if h.pos == nil {
		h.pos = make([]int32, h.n)
		for i := range h.pos {
			h.pos[i] = -1
		}
	}
}

// first orders entries root-first: larger priority, ties by smaller vertex.
func (h *PriorityHeap) first(i, j int) bool {
	if h.prio[i] != h.prio[j] {
		return h.prio[i] > h.prio[j]
	}
	return h.verts[i] < h.verts[j]
}

func (h *PriorityHeap) swap(i, j int) {
	h.verts[i], h.verts[j] = h.verts[j], h.verts[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.verts[i]] = int32(i)
	h.pos[h.verts[j]] = int32(j)
}

func (h *PriorityHeap) siftUp(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.first(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	return i
}

func (h *PriorityHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		top := i
		if l < len(h.verts) && h.first(l, top) {
			top = l
		}
		if r < len(h.verts) && h.first(r, top) {
			top = r
		}
		if top == i {
			return
		}
		h.swap(i, top)
		i = top
	}
}

// Update sets the priority of v, inserting it if absent.
func (h *PriorityHeap) Update(v cdag.VertexID, prio int64) {
	h.ensurePos()
	if i := h.pos[v]; i >= 0 {
		h.prio[i] = prio
		h.siftDown(h.siftUp(int(i)))
		return
	}
	h.verts = append(h.verts, v)
	h.prio = append(h.prio, prio)
	h.pos[v] = int32(len(h.verts) - 1)
	h.siftUp(len(h.verts) - 1)
}

// Remove deletes v from the heap; it is a no-op when v is absent.
func (h *PriorityHeap) Remove(v cdag.VertexID) {
	if h.pos == nil || h.pos[v] < 0 {
		return
	}
	i := int(h.pos[v])
	last := len(h.verts) - 1
	if i != last {
		h.swap(i, last)
	}
	h.verts = h.verts[:last]
	h.prio = h.prio[:last]
	h.pos[v] = -1
	if i < last {
		h.siftDown(h.siftUp(i))
	}
}

// PeekMax returns the entry with the largest priority without removing it.
func (h *PriorityHeap) PeekMax() (cdag.VertexID, int64, bool) {
	if len(h.verts) == 0 {
		return cdag.InvalidVertex, 0, false
	}
	return h.verts[0], h.prio[0], true
}

// PopMax removes and returns the entry with the largest priority.
func (h *PriorityHeap) PopMax() (cdag.VertexID, int64, bool) {
	if len(h.verts) == 0 {
		return cdag.InvalidVertex, 0, false
	}
	v, p := h.verts[0], h.prio[0]
	h.Remove(v)
	return v, p, true
}

// PopMaxUnpinned removes and returns the first entry in heap order whose
// stamp differs from epoch: stamp[v] == epoch marks v pinned, and pinned
// entries stay in the heap with their priorities.  It reports false, leaving
// the heap unchanged, when every entry is pinned.  The search descends only
// through pinned entries, so it visits O(pinned) positions before the one
// O(log n) removal.
func (h *PriorityHeap) PopMaxUnpinned(stamp []int32, epoch int32) (cdag.VertexID, int64, bool) {
	i := h.firstUnpinned(0, -1, stamp, epoch)
	if i < 0 {
		return cdag.InvalidVertex, 0, false
	}
	v, p := h.verts[i], h.prio[i]
	h.Remove(v)
	return v, p, true
}

// firstUnpinned returns the position of the first unpinned entry in heap
// order within the subtree rooted at i, or best when none orders before the
// entry at best (-1: no candidate yet).  Every entry orders after its parent,
// so the descent stops at the first unpinned entry on each path and skips
// subtrees whose root already orders after best.
func (h *PriorityHeap) firstUnpinned(i, best int, stamp []int32, epoch int32) int {
	if i >= len(h.verts) || (best >= 0 && !h.first(i, best)) {
		return best
	}
	if stamp[h.verts[i]] != epoch {
		return i
	}
	best = h.firstUnpinned(2*i+1, best, stamp, epoch)
	return h.firstUnpinned(2*i+2, best, stamp, epoch)
}

// Package memsim is a lightweight data-movement simulator for CDAG schedules
// on a distributed machine with one level of fast memory per node.  Unlike
// package prbw it does not construct a legal pebble game move by move;
// instead it directly simulates, for a given vertex schedule and vertex→node
// assignment, the traffic between each node's fast memory (capacity S values)
// and its main memory, and the inter-node traffic needed to fetch values
// produced on other nodes.
//
// The resulting counts are achievable by a legal P-RBW game (each fast-memory
// miss corresponds to a load/move-up, each write-back to a store/move-down,
// and each remote value fetch to a remote get), so they serve as empirical
// upper bounds to compare against the lower bounds of packages partition,
// wavefront and bounds — this is how the tightness claims of Section 5.4 are
// checked.
package memsim

import (
	"context"
	"errors"
	"fmt"

	"cdagio/internal/cdag"
	"cdagio/internal/iheap"
	"cdagio/internal/sched"
)

// Config describes the simulated machine.
type Config struct {
	// Nodes is the number of nodes.
	Nodes int
	// FastWords is the capacity of each node's fast memory, in values.
	FastWords int
	// Policy selects the replacement policy of the fast memory.
	Policy Policy
}

// Policy is a fast-memory replacement policy.
type Policy int

const (
	// Belady evicts the value whose next use on the node lies farthest in the
	// future (offline optimal for a fixed schedule).
	Belady Policy = iota
	// LRU evicts the least recently used value.
	LRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Belady:
		return "belady"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats reports the simulated data movement.
type Stats struct {
	// LoadsPerNode[n] counts values brought into node n's fast memory from
	// its own main memory (vertical traffic, inbound).
	LoadsPerNode []int64
	// StoresPerNode[n] counts values written back from node n's fast memory
	// to its main memory (vertical traffic, outbound).
	StoresPerNode []int64
	// RemoteGetsPerNode[n] counts values fetched by node n from another
	// node's memory (horizontal traffic).
	RemoteGetsPerNode []int64
	// ComputesPerNode[n] counts vertices fired on node n.
	ComputesPerNode []int64
}

// VerticalTotal returns total loads+stores across all nodes.
func (s *Stats) VerticalTotal() int64 {
	var t int64
	for i := range s.LoadsPerNode {
		t += s.LoadsPerNode[i] + s.StoresPerNode[i]
	}
	return t
}

// MaxNodeVertical returns the largest per-node loads+stores count.
func (s *Stats) MaxNodeVertical() int64 {
	var m int64
	for i := range s.LoadsPerNode {
		if v := s.LoadsPerNode[i] + s.StoresPerNode[i]; v > m {
			m = v
		}
	}
	return m
}

// HorizontalTotal returns the total number of remote fetches.
func (s *Stats) HorizontalTotal() int64 {
	var t int64
	for _, v := range s.RemoteGetsPerNode {
		t += v
	}
	return t
}

// MaxNodeHorizontal returns the largest per-node remote-fetch count.
func (s *Stats) MaxNodeHorizontal() int64 {
	var m int64
	for _, v := range s.RemoteGetsPerNode {
		if v > m {
			m = v
		}
	}
	return m
}

// String summarizes the statistics.
func (s *Stats) String() string {
	return fmt.Sprintf("memsim: vertical %d (max/node %d), horizontal %d (max/node %d)",
		s.VerticalTotal(), s.MaxNodeVertical(), s.HorizontalTotal(), s.MaxNodeHorizontal())
}

// RunCtx simulates the schedule on the configured machine.
//
// order lists the non-input vertices in execution order; owner[v] gives the
// node that computes v (and that owns input v's initial copy).  A vertex with
// owner out of range is assigned to node 0.  sched.Check validates order, and
// its use index gives each value's next use on a node.
//
// The simulation charges:
//   - one load to node n when a value it needs is not in its fast memory but
//     is available in its own main memory (inputs it owns, values it computed
//     and wrote back, or remote values fetched earlier and since evicted);
//   - one remote get (plus the load implicit in it) when the value lives on
//     another node;
//   - one store when a value still needed later (or tagged as an output) is
//     evicted from fast memory without a durable copy.
//
// ctx bounds the simulation: the loop checks it every 4096 schedule steps
// (individual steps stay atomic) and returns ctx.Err() promptly once the
// context is cancelled.
func RunCtx(ctx context.Context, g *cdag.Graph, cfg Config, order []cdag.VertexID, owner []int) (*Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("memsim: need at least one node")
	}
	if cfg.FastWords < 1 {
		return nil, fmt.Errorf("memsim: need at least one fast-memory word")
	}
	n := g.NumVertices()
	// Every pass below sweeps predecessor rows, so hoist the flat CSR arrays
	// once: the rows are identical to g.Pred(v) in content and order.
	predOff, predVal := g.PredecessorCSR()
	nodeOf := func(v cdag.VertexID) int {
		if int(v) < len(owner) && owner[v] >= 0 && owner[v] < cfg.Nodes {
			return owner[v]
		}
		return 0
	}

	uses, err := sched.Check(g, order, cfg.FastWords)
	if err != nil {
		var ce *sched.CapacityError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("memsim: fast memory %d too small for in-degree %d", cfg.FastWords, ce.InDegree)
		}
		return nil, fmt.Errorf("memsim: %v", err)
	}

	stats := &Stats{
		LoadsPerNode:      make([]int64, cfg.Nodes),
		StoresPerNode:     make([]int64, cfg.Nodes),
		RemoteGetsPerNode: make([]int64, cfg.Nodes),
		ComputesPerNode:   make([]int64, cfg.Nodes),
	}

	caches := make([]*cache, cfg.Nodes)
	for i := range caches {
		caches[i] = newCache(n, cfg.Policy)
	}
	// durable[v] records whether v has a copy in some node's main memory (and
	// on which node it landed first); inputs start durable on their owner.
	durable := make([]int, n)
	for i := range durable {
		durable[i] = -1
	}
	for _, v := range g.Inputs() {
		durable[v] = nodeOf(v)
	}

	// The Belady key of a value on a node is its next use there; the write-back
	// decision asks whether any node uses it later.
	nextUseOnNode := func(v cdag.VertexID, after, node int) int {
		for _, pos := range uses.Rest(v, after) {
			if nodeOf(order[pos]) == node {
				return int(pos)
			}
		}
		return sched.Never
	}
	neededLater := func(v cdag.VertexID, after int) bool {
		return uses.Next(v, after) != sched.Never || g.IsOutput(v)
	}

	// pinStamp[v] == step marks v as pinned (an operand of the vertex firing
	// at that step), replacing a per-step map allocation.
	pinStamp := make([]int32, n)
	for i := range pinStamp {
		pinStamp[i] = -1
	}

	evict := func(node, pos int) error {
		victim, _, ok := caches[node].h.PopMaxUnpinned(pinStamp, int32(pos))
		if !ok {
			return fmt.Errorf("memsim: fast memory of node %d full of pinned values at step %d", node, pos)
		}
		if durable[victim] < 0 && neededLater(victim, pos) {
			stats.StoresPerNode[node]++
			durable[victim] = node
		}
		return nil
	}
	ensureRoom := func(node, pos int) error {
		for caches[node].len() >= cfg.FastWords {
			if err := evict(node, pos); err != nil {
				return err
			}
		}
		return nil
	}

	for i, v := range order {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		node := nodeOf(v)
		// One row slice serves both the pinning and the fetch pass.
		preds := predVal[predOff[v]:predOff[v+1]]
		for _, p := range preds {
			pinStamp[p] = int32(i)
		}
		for _, p := range preds {
			if caches[node].contains(p) {
				caches[node].touch(p, i, nextUseOnNode(p, i, node))
				continue
			}
			if err := ensureRoom(node, i); err != nil {
				return nil, err
			}
			if durable[p] < 0 {
				// The value only lives in another node's fast memory: it must
				// first be written back there before this node can fetch it.
				src := -1
				for nd := range caches {
					if nd != node && caches[nd].contains(p) {
						src = nd
						break
					}
				}
				if src < 0 {
					return nil, fmt.Errorf("memsim: value of vertex %d lost before use by %d", p, v)
				}
				stats.StoresPerNode[src]++
				durable[p] = src
			}
			if durable[p] != node {
				stats.RemoteGetsPerNode[node]++
			} else {
				stats.LoadsPerNode[node]++
			}
			caches[node].insert(p, i, nextUseOnNode(p, i, node))
		}
		if err := ensureRoom(node, i); err != nil {
			return nil, err
		}
		caches[node].insert(v, i, nextUseOnNode(v, i, node))
		stats.ComputesPerNode[node]++
	}

	// Final write-back of outputs still only in fast memory.
	for _, v := range g.Outputs() {
		if durable[v] >= 0 {
			continue
		}
		node := nodeOf(v)
		if !caches[node].contains(v) {
			return nil, fmt.Errorf("memsim: output %d lost before final store", v)
		}
		stats.StoresPerNode[node]++
		durable[v] = node
	}
	return stats, nil
}

// cache is a fixed-capacity value cache with Belady or LRU replacement,
// built on the concrete indexed priority heap of package iheap: membership,
// touches, removals and victim selection all run on flat arrays without the
// interface boxing of container/heap, and victim ties (values whose next use
// coincides, or that are never used again) are broken deterministically by
// smallest vertex ID.  The heap's position index costs one lazily-allocated
// int32 per graph vertex per active node — proportionate for the simulator's
// design point of single-digit node counts against multi-megabyte CSR
// graphs; a many-hundred-node simulation would want a capacity-bounded index
// instead.
type cache struct {
	policy Policy
	h      iheap.PriorityHeap
	clock  int64
}

func newCache(universe int, policy Policy) *cache {
	c := &cache{policy: policy}
	c.h.Init(universe)
	return c
}

func (c *cache) len() int                      { return c.h.Len() }
func (c *cache) contains(v cdag.VertexID) bool { return c.h.Contains(v) }

func (c *cache) priorityFor(pos, nextUse int) int64 {
	c.clock++
	if c.policy == LRU {
		return -c.clock // least recently touched = highest priority to evict
	}
	if nextUse == sched.Never {
		return int64(1) << 62
	}
	return int64(nextUse)
}

func (c *cache) insert(v cdag.VertexID, pos, nextUse int) {
	c.h.Update(v, c.priorityFor(pos, nextUse))
}

func (c *cache) touch(v cdag.VertexID, pos, nextUse int) {
	if c.h.Contains(v) {
		c.h.Update(v, c.priorityFor(pos, nextUse))
	}
}

package graphalg

import (
	"sort"

	"cdagio/internal/cdag"
)

// MinDominatorSize computes a minimum dominator of the target set on a
// strip-local flow network, the same contraction idea the Lemma 2 wavefront
// instances use: instead of materializing the full 2|V|+2-node vertex-split
// network, only the dominator strip — the vertices lying on some input→target
// path — becomes network nodes.
//
// Construction: a backward sweep from the target stamps the vertices with a
// directed path into it; a forward sweep from the inputs then walks only those
// vertices, assigning dense network ids as it goes.  The super source feeds
// every live input's vIn, every materialized vertex gets a unit split arc
// vIn→vOut (dominator vertices may be inputs or targets, so every strip
// vertex stays cuttable), target members get a vOut→sink arc, and CDAG edges
// between strip vertices become infinite arcs.  Exactness: every input→target
// path of g lies entirely inside the strip (each of its vertices is
// input-reachable and target-co-reachable), so the strip network carries
// exactly the paths the full network carries; vertices outside the strip can
// carry no flow in the full network and therefore never participate in a
// minimum cut that this instance cannot also express.  The bound value is
// identical to a MinVertexCut from the inputs to the target on the full
// vertex-split network (the tests pin the two together); only the cost —
// O(strip) instead of O(V+E) per call — and, on graphs with several minimum
// dominators, the particular witness set may differ.
//
// The returned cut is sorted by vertex ID (a canonical representative,
// independent of traversal order).
func (cs *CutSolver) MinDominatorSize(g *cdag.Graph, target *cdag.VertexSet) (int, []cdag.VertexID) {
	cs.ensureGraph(g)
	inputs := g.Inputs()
	if len(inputs) == 0 || target.Len() == 0 {
		return 0, nil
	}
	e := cs.nextEpoch()
	sOff, sVal := cs.succOff, cs.succVal
	pOff, pVal := cs.predOff, cs.predVal

	// Backward sweep: coMark stamps the vertices with a directed path into the
	// target (members included); seenMark stamps target membership so the
	// forward sweep can attach sink arcs without set lookups.
	targets := target.Elements()
	stack := cs.stack[:0]
	for _, t := range targets {
		cs.seenMark[t] = e
		if cs.coMark[t] != e {
			cs.coMark[t] = e
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pVal[pOff[u]:pOff[u+1]] {
			if cs.coMark[p] != e {
				cs.coMark[p] = e
				stack = append(stack, p)
			}
		}
	}

	// Forward sweep from the live inputs, staging the strip network.
	// Node ids: super source 0, super sink 1, vIn = 2·local+2, vOut = 2·local+3.
	f := &cs.strip
	f.resetStage()
	cnt := int32(0)
	strip := cs.desc[:0] // local id → graph vertex, reusing the cone scratch
	for _, in := range inputs {
		if cs.coMark[in] != e || cs.mapEp[in] == e {
			continue // no path into the target, or an input listed twice
		}
		cs.mapEp[in] = e
		cs.localOf[in] = cnt
		strip = append(strip, in)
		f.stageEdge(0, 2*cnt+2, flowInf) // super source → inIn
		cnt++
		stack = append(stack, in)
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := 2*cs.localOf[u] + 3
		f.stageEdge(out-1, out, 1) // unit split arc: every strip vertex is cuttable
		if cs.seenMark[u] == e {
			f.stageEdge(out, 1, flowInf) // target member → super sink
		}
		for _, w := range sVal[sOff[u]:sOff[u+1]] {
			if cs.coMark[w] != e {
				continue // dead: no path into the target
			}
			wl, fresh := cs.stripLocal(w, e, cnt)
			if fresh {
				cnt++
				strip = append(strip, w)
				stack = append(stack, w)
			}
			f.stageEdge(out, 2*wl+2, flowInf)
		}
	}
	cs.desc, cs.stack = strip[:0], stack[:0]
	if cnt == 0 {
		// No input reaches the target: nothing to dominate.
		return 0, nil
	}
	f.buildFresh(int(2 + 2*cnt))
	flow := f.maxFlow(0, 1)
	// Every source→sink path crosses a unit split arc, so flow < flowInf.
	f.residualReach(0)
	var cut []cdag.VertexID
	for li, v := range strip {
		if f.reached(int32(2*li+2)) && !f.reached(int32(2*li+3)) {
			cut = append(cut, v)
		}
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
	return int(flow), cut
}

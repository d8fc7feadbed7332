package graphalg

// maxFlowReference and maxFlowBoundedReference are the Dinic solves as they
// stood before the BFS learned to stop at the sink's level: every BFS labels
// the whole residual-reachable set, and the level-cut certificate sums the
// crossing capacities in a second pass over the queue.  They are the
// executable specification of the flow core's augmenting-path order — tests
// assert that maxFlowBounded leaves identical values, abort verdicts and
// residual capacities (see TestMaxFlowMatchesReference).

// maxFlowReference is maxFlowBounded with no limit and the full BFS.
func (f *flowCSR) maxFlowReference(s, t int32) int64 {
	if s == t {
		return flowInf
	}
	var total int64
	for {
		e := f.bumpEpoch()
		f.levelEp[s] = e
		f.level[s] = 0
		q := f.queue[:0]
		q = append(q, s)
		reachedT := false
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			lu := f.level[u] + 1
			base := f.adjOff[u]
			for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
				v := f.to[ai]
				if f.cap[ai] > 0 && f.levelEp[v] != e {
					f.levelEp[v] = e
					f.level[v] = lu
					if v == t {
						reachedT = true
					}
					q = append(q, v)
				}
			}
		}
		f.queue = q[:0]
		if !reachedT {
			return total
		}
		total += f.blockingFlow(s, t, e)
	}
}

// maxFlowBoundedReference is maxFlowBounded with the full BFS and the
// second pass over the queue for the crossing sums.
func (f *flowCSR) maxFlowBoundedReference(s, t int32, lim int64) (int64, bool) {
	if s == t {
		return flowInf, false
	}
	var total int64
	for {
		e := f.bumpEpoch()
		f.levelEp[s] = e
		f.level[s] = 0
		q := f.queue[:0]
		q = append(q, s)
		reachedT := false
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			lu := f.level[u] + 1
			base := f.adjOff[u]
			for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
				v := f.to[ai]
				if f.cap[ai] > 0 && f.levelEp[v] != e {
					f.levelEp[v] = e
					f.level[v] = lu
					if v == t {
						reachedT = true
					}
					q = append(q, v)
				}
			}
		}
		if !reachedT {
			f.queue = q[:0]
			return total, false
		}
		if lim > 0 {
			lt := int(f.level[t])
			sums := f.cutSums
			if cap(sums) < lt {
				sums = make([]int64, lt)
			} else {
				sums = sums[:lt]
			}
			for k := range sums {
				sums[k] = 0
			}
			for _, u := range q {
				lu := f.level[u]
				if int(lu) >= lt {
					continue
				}
				base := f.adjOff[u]
				for _, ai := range f.adjArc[base : base+f.adjLen[u]] {
					if f.cap[ai] <= 0 {
						continue
					}
					v := f.to[ai]
					if f.levelEp[v] == e && f.level[v] == lu+1 {
						if sums[lu] += f.cap[ai]; sums[lu] > flowInf {
							sums[lu] = flowInf
						}
					}
				}
			}
			rem := flowInf
			for _, sum := range sums {
				if sum < rem {
					rem = sum
				}
			}
			f.cutSums = sums
			if total+rem < lim {
				f.queue = q[:0]
				return total + rem, true
			}
		}
		f.queue = q[:0]
		total += f.blockingFlow(s, t, e)
	}
}

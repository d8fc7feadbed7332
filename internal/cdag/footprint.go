package cdag

// FootprintBytes returns an estimate of the heap bytes the graph currently
// holds: label storage, tag arrays, the staged edge buffer and the compiled
// CSR arrays.  It is the admission currency of the serving layer's
// byte-budgeted Workspace cache, so it deliberately measures capacity (what
// the process has actually committed), not length.
func (g *Graph) FootprintBytes() int64 {
	b := int64(0)
	b += int64(cap(g.labelBuf))
	b += int64(cap(g.labelEnd)) * 4
	b += int64(cap(g.input)) + int64(cap(g.output))
	b += int64(cap(g.eu))*4 + int64(cap(g.ev))*4
	b += int64(cap(g.succOff))*8 + int64(cap(g.predOff))*8
	b += int64(cap(g.succVal))*4 + int64(cap(g.predVal))*4
	return b
}

// EstimateFootprintBytes predicts FootprintBytes for a materialized graph
// with the given vertex, edge and label-byte counts, without building it:
// the CSR form stores two offset arrays of (V+1) int64 and two value arrays
// of E int32, plus the tag and label-end arrays.  Boundary code uses this to
// reject an upload by its declared size before allocating anything.
func EstimateFootprintBytes(vertices, edges int, labelBytes int64) int64 {
	v, e := int64(vertices), int64(edges)
	return labelBytes + // labelBuf
		v*4 + // labelEnd
		v*2 + // input + output tags
		(v+1)*16 + // succOff + predOff
		e*8 // succVal + predVal
}

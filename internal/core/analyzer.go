// Package core ties the library together: it is the unified analyzer that,
// given a CDAG (or one of the paper's algorithm families) and a machine
// description, computes data-movement lower bounds with every applicable
// technique, measures the data movement of explicit schedules as upper
// bounds, and renders the comparison reports of the paper's evaluation
// section.
package core

import (
	"fmt"
	"strings"

	"cdagio/internal/bounds"
	"cdagio/internal/cdag"
)

// Options configures a sequential CDAG analysis.
type Options struct {
	// FastMemory is the fast-memory capacity S, in values.
	FastMemory int
	// WavefrontCandidates caps how many vertices the min-cut wavefront bound
	// examines (0 selects a degree-ranked sample of 32; negative examines
	// every vertex, which is expensive on large CDAGs).
	WavefrontCandidates int
	// Concurrency bounds the worker pool of the min-cut wavefront search
	// (≤ 0 selects GOMAXPROCS).
	Concurrency int
	// ExactOptimalLimit is the largest vertex count for which the exact
	// optimal pebble-game search runs.  Zero disables it.
	ExactOptimalLimit int
	// Schedule supplies the schedule whose measured I/O becomes the upper
	// bound; nil selects the topological order.
	Schedule []cdag.VertexID
}

// Analysis is the result of a sequential CDAG analysis.
type Analysis struct {
	Graph      *cdag.Graph
	FastMemory int

	// LowerBounds lists every lower bound that was computed (trivial
	// compulsory I/O, Lemma 2 wavefront, Corollary 1 partition, exact search).
	LowerBounds []bounds.Bound
	// Upper is the measured I/O of the analyzed schedule.
	Upper bounds.Bound
	// ExactOptimal is the exact optimum when the exact search ran (else nil).
	ExactOptimal *bounds.Bound
	// WMax is the wavefront lower bound value used by Lemma 2 and the vertex
	// attaining it.
	WMax         int
	WMaxAt       cdag.VertexID
	MeasuredIO   int64
	ScheduleUsed string
}

// BestLower returns the largest lower bound.
func (a *Analysis) BestLower() bounds.Bound {
	best := bounds.Bound{Kind: bounds.Lower, Technique: "none"}
	for _, b := range a.LowerBounds {
		if b.Value > best.Value {
			best = b
		}
	}
	return best
}

// Gap returns the ratio of the measured upper bound to the best lower bound
// (infinity when the lower bound is zero).
func (a *Analysis) Gap() float64 {
	lb := a.BestLower().Value
	if lb <= 0 {
		return -1
	}
	return a.Upper.Value / lb
}

// Report renders the analysis as a human-readable block.
func (a *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data-movement analysis of %s with S = %d\n", a.Graph, a.FastMemory)
	for _, lb := range a.LowerBounds {
		fmt.Fprintf(&b, "  %s\n", lb)
	}
	fmt.Fprintf(&b, "  %s\n", a.Upper)
	best := a.BestLower()
	fmt.Fprintf(&b, "  best lower bound: %.6g [%s]\n", best.Value, best.Technique)
	if gap := a.Gap(); gap > 0 {
		fmt.Fprintf(&b, "  upper/lower gap: %.3g\n", gap)
	}
	return b.String()
}

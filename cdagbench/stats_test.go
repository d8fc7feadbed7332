package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1000000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPutLatencyOmitsThinTails(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := map[string]metric{}
	putLatency(got, "hit", xs, 50, 99)
	if _, ok := got["hit_p50_ms"]; !ok {
		t.Error("median of 500 samples left out")
	}
	if _, ok := got["hit_p99_ms"]; ok {
		t.Error("p99 of 500 samples reported: only 5 lie beyond it")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the spreads of the benchmark's own runs are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is a number")
	}
}

// Completions fall into whole windows by time; the partial window at the end
// and a completion at the very end are left out.
func TestWindowRates(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	ends := []time.Duration{ms(10), ms(400), ms(499), ms(500), ms(999), ms(1200), ms(1250)}
	got := windowRates(ends, ms(1250), ms(500))
	if want := []float64{6, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	if got := windowRates(ends, ms(400), ms(500)); got != nil {
		t.Errorf("windowRates over less than a window = %v, want none", got)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func readResultSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of the comparator.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares the runs of a parent (a) and a change (b) on one metric.
// pa and pb are the same runs matched into pairs.  The rules:
//   - every run of b better (worse) than every run of a: better (worse),
//     whatever the spread;
//   - otherwise, a spread (quartile distance over median) of either side
//     beyond the bound: unresolved;
//   - b wins at least nine tenths of the pairs and its median is better by
//     more than a's quartile distance: better; the mirror case: worse;
//   - b's median worse than a's by more than the bound: worse;
//   - anything else: unchanged.
//
// It also returns the share of pairs b won; ties count for neither side.
func judge(a, b, pa, pb []float64, higherIsBetter bool, bound float64) (string, float64) {
	sign := 1.0 // positive deltas are improvements
	if !higherIsBetter {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range pa {
		switch d := sign * (pb[i] - pa[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	share := 0.0
	if len(pa) > 0 {
		share = float64(wins) / float64(len(pa))
	}
	if len(a) == 0 || len(b) == 0 {
		return unresolved, share
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	switch {
	case higherIsBetter && minB > maxA, !higherIsBetter && maxB < minA:
		return better, share
	case higherIsBetter && maxB < minA, !higherIsBetter && minB > maxA:
		return worse, share
	}
	medA, medB := median(a), median(b)
	if medA == 0 && medB == 0 {
		// A metric that is zero on both sides (no failures) has no
		// relative spread, and no change.
		return unchanged, share
	}
	if spread(a) > bound || spread(b) > bound {
		return unresolved, share
	}
	q1, q3 := quartiles(a)
	gain := sign * (medB - medA)
	clear := math.Abs(medB-medA) > q3-q1
	n := float64(len(pa))
	switch {
	case n > 0 && float64(wins) >= 0.9*n && gain > 0 && clear:
		return better, share
	case n > 0 && float64(losses) >= 0.9*n && gain < 0 && clear:
		return worse, share
	case -gain/math.Abs(medA) > bound:
		return worse, share
	}
	return unchanged, share
}

// pairedChange is the median of b's relative change over a within each
// pair.  Runs of a pair ran back to back, so it is steadier than the
// difference of the medians when the host drifts; the verdict does not use it.
func pairedChange(pa, pb []float64) float64 {
	var d []float64
	for i := range pa {
		if pa[i] != 0 {
			d = append(d, pb[i]/pa[i]-1)
		}
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// sample is one run's value of a metric and the seed it ran with.
type sample struct {
	seed  int64
	value float64
}

// series collects one metric of one workload from the untraced runs of a
// result set, in file order.  A seed may repeat: iolb-suite and cdagx-paper
// only record it, so ten runs at one seed are ten samples.
func series(recs []record, workload, name string) []sample {
	var out []sample
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, sample{r.Seed, m.Value})
		} else if m, ok := r.Detail[name]; ok {
			out = append(out, sample{r.Seed, m.Value})
		}
	}
	return out
}

// pairUp returns all values of each side and the pairs.  The k-th run of a
// seed in a is paired with the k-th run of that seed in b; when the sets
// share no seed, runs are paired in file order.
func pairUp(a, b []sample) (va, vb, pa, pb []float64) {
	type key struct {
		seed int64
		k    int
	}
	keyed := func(xs []sample) ([]key, map[key]float64) {
		seen := map[int64]int{}
		keys := make([]key, len(xs))
		m := map[key]float64{}
		for i, x := range xs {
			keys[i] = key{x.seed, seen[x.seed]}
			seen[x.seed]++
			m[keys[i]] = x.value
		}
		return keys, m
	}
	for _, x := range a {
		va = append(va, x.value)
	}
	for _, x := range b {
		vb = append(vb, x.value)
	}
	ka, _ := keyed(a)
	_, mb := keyed(b)
	for i, k := range ka {
		if y, ok := mb[k]; ok {
			pa, pb = append(pa, va[i]), append(pb, y)
		}
	}
	if len(pa) == 0 {
		n := min(len(va), len(vb))
		pa, pb = va[:n], vb[:n]
	}
	return va, vb, pa, pb
}

// boundDef is a compared metric's direction and bound.
type boundDef struct {
	higher bool
	bound  float64
}

// boundsFor returns each compared metric's direction and bound: the
// end-to-end metrics from BENCHMARK.json, the workload metrics from
// detailDefs.
func boundsFor(b *benchmarkFile) map[string]boundDef {
	out := map[string]boundDef{}
	for _, m := range b.EndToEnd {
		out[m.Name] = boundDef{m.Better == "higher", m.Bound}
	}
	for name, d := range detailDefs {
		out[name] = boundDef{d.better == "higher", d.bound}
	}
	return out
}

// compareMain is `cdagbench compare A B`: per workload and metric, each
// side's median and quartiles, the share of pairs B won, and a verdict.
func compareMain(args []string, root string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cdagbench compare BEFORE.jsonl AFTER.jsonl")
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdagbench compare: %v\n", err)
		return 2
	}
	sets := make([][]record, 2)
	for i, p := range args {
		if sets[i], err = readResultSet(p); err != nil {
			fmt.Fprintf(os.Stderr, "cdagbench compare: %v\n", err)
			return 2
		}
	}
	warnFingerprints(w, sets[0], sets[1])
	bounds := boundsFor(bf)

	fmt.Fprintf(w, "%-12s %-22s %-6s %-32s %-32s %6s %8s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B won", "pair Δ", "verdict")
	for _, wl := range bf.Workloads {
		names := map[string]string{} // metric → unit
		for _, set := range sets {
			for _, r := range set {
				if r.Workload != wl.Name || r.Trace != 0 {
					continue
				}
				for _, ms := range []map[string]metric{r.Metrics, r.Detail} {
					for k, m := range ms {
						if _, ok := lookupBound(bounds, k); ok {
							names[k] = m.Unit
						}
					}
				}
			}
		}
		keys := make([]string, 0, len(names))
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bd, _ := lookupBound(bounds, k)
			va, vb, pa, pb := pairUp(series(sets[0], wl.Name, k), series(sets[1], wl.Name, k))
			v, share := judge(va, vb, pa, pb, bd.higher, bd.bound)
			fmt.Fprintf(w, "%-12s %-22s %-6s %-32s %-32s %5.0f%% %+7.1f%%  %s (bound %.0f%%)\n", wl.Name, k, names[k],
				summary(va), summary(vb), 100*share, 100*pairedChange(pa, pb), v, 100*bd.bound)
		}
	}
	return 0
}

// lookupBound finds a metric's bound; "analyze_s.jacobi" takes the bound of
// "analyze_s".
func lookupBound(bounds map[string]boundDef, name string) (boundDef, bool) {
	if b, ok := bounds[name]; ok {
		return b, true
	}
	base, suffix, ok := strings.Cut(name, ".")
	if ok && contains(kernelNames, suffix) {
		b, ok := bounds[base]
		return b, ok
	}
	return bounds[name], false
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// warnFingerprints flags result sets measured on different hosts: their
// differences are not the code's.
func warnFingerprints(w io.Writer, a, b []record) {
	all := append(append([]record(nil), a...), b...)
	if len(all) == 0 {
		return
	}
	ref := all[0].Host
	seen := map[string]bool{}
	for _, r := range all[1:] {
		for _, d := range ref.differences(r.Host) {
			seen[d] = true
		}
	}
	if len(seen) > 0 {
		var d []string
		for k := range seen {
			d = append(d, k)
		}
		sort.Strings(d)
		fmt.Fprintf(w, "WARNING: the runs were measured on different hosts (%s differ); the comparison is not valid\n",
			strings.Join(d, ", "))
	}
	fmt.Fprintf(w, "A: %d runs, commit %s; B: %d runs, commit %s\n", len(a), commitOf(a), len(b), commitOf(b))
}

func commitOf(recs []record) string {
	if len(recs) == 0 {
		return "-"
	}
	c := recs[0].Host.Commit
	if recs[0].Host.Dirty == "true" {
		c += " (dirty)"
	}
	return c
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func seq(from, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + step*float64(i)
	}
	return xs
}

func shift(xs []float64, d float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + d
	}
	return out
}

func TestJudge(t *testing.T) {
	a := seq(100, 1, 10) // median 104.5, quartiles 101.75 and 107.25
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 150}
	for _, c := range []struct {
		name           string
		a, b           []float64
		higherIsBetter bool
		bound          float64
		want           string
		wantShare      float64
	}{
		{"same runs", a, a, false, 0.1, unchanged, 0},
		{"every run faster", a, shift(a, -20), false, 0.1, better, 1},
		{"every run slower", a, shift(a, 20), false, 0.1, worse, 0},
		{"higher is better", a, shift(a, 20), true, 0.1, better, 1},
		// Overlapping runs, but b loses every pair by more than a's
		// quartile distance.
		{"loses every pair", a, shift(a, 7), false, 0.1, worse, 0},
		// Loses every pair by less than a's quartile distance and less
		// than the bound: not a regression.
		{"small consistent loss", a, shift(a, 2), false, 0.1, unchanged, 0},
		{"spread beyond the bound", wide, shift(wide, -5), false, 0.1, unresolved, 1},
		// The every-run-better exception holds even when the spread
		// exceeds the bound.
		{"every run better despite spread", wide, shift(wide, -100), false, 0.1, better, 1},
		{"no failures on either side", []float64{0, 0, 0}, []float64{0, 0, 0}, false, 0, unchanged, 0},
		{"failures appear", []float64{0, 0, 0}, []float64{0.01, 0.02, 0.01}, false, 0, worse, 0},
	} {
		got, share := judge(c.a, c.b, c.a, c.b, c.higherIsBetter, c.bound)
		if got != c.want || share != c.wantShare {
			t.Errorf("%s: judge = %s, %.2f; want %s, %.2f", c.name, got, share, c.want, c.wantShare)
		}
	}
}

func TestJudgeMedianBeyondBound(t *testing.T) {
	// b is worse by 15% in the median but wins two pairs of ten, too many
	// for the pairs rule: the bound alone makes it a regression.
	a := seq(100, 1, 10)
	b := shift(a, 16)
	b[0], b[1] = 99, 99
	got, _ := judge(a, b, a, b, false, 0.1)
	if got != worse {
		t.Errorf("judge = %s, want worse", got)
	}
}

func TestPairedChange(t *testing.T) {
	got := pairedChange([]float64{100, 200, 50}, []float64{110, 210, 60})
	if want := 0.1; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("pairedChange = %v, want %v", got, want)
	}
	if pairedChange(nil, nil) != 0 {
		t.Error("pairedChange of no pairs is not 0")
	}
}

func samples(seeds []int64, values ...float64) []sample {
	out := make([]sample, len(values))
	for i, v := range values {
		out[i] = sample{seeds[i], v}
	}
	return out
}

func TestPairUpBySeed(t *testing.T) {
	a := samples([]int64{1, 2, 3}, 10, 20, 30)
	b := samples([]int64{2, 3, 4}, 21, 31, 41)
	va, vb, pa, pb := pairUp(a, b)
	if !reflect.DeepEqual(va, []float64{10, 20, 30}) || !reflect.DeepEqual(vb, []float64{21, 31, 41}) {
		t.Errorf("values %v %v", va, vb)
	}
	if !reflect.DeepEqual(pa, []float64{20, 30}) || !reflect.DeepEqual(pb, []float64{21, 31}) {
		t.Errorf("pairs %v %v", pa, pb)
	}
	_, _, pa, pb = pairUp(samples([]int64{1, 2}, 1, 2), samples([]int64{5, 6, 7}, 5, 6, 7))
	if !reflect.DeepEqual(pa, []float64{1, 2}) || !reflect.DeepEqual(pb, []float64{5, 6}) {
		t.Errorf("pairs without shared seeds %v %v", pa, pb)
	}
}

// Runs that repeat a seed are all kept, and the k-th run of a seed on one
// side is paired with the k-th run of that seed on the other.
func TestPairUpRepeatedSeeds(t *testing.T) {
	a := samples([]int64{1, 1, 2, 1}, 10, 11, 20, 12)
	b := samples([]int64{1, 2, 1, 2}, 100, 200, 101, 201)
	va, vb, pa, pb := pairUp(a, b)
	if !reflect.DeepEqual(va, []float64{10, 11, 20, 12}) || !reflect.DeepEqual(vb, []float64{100, 200, 101, 201}) {
		t.Errorf("values %v %v", va, vb)
	}
	if !reflect.DeepEqual(pa, []float64{10, 11, 20}) || !reflect.DeepEqual(pb, []float64{100, 101, 200}) {
		t.Errorf("pairs %v %v", pa, pb)
	}
}

// Ten runs at one seed on each side are ten samples a side, so a consistent
// slowdown is judged as such and not from one value per side.
func TestCompareRepeatedSeed(t *testing.T) {
	dir := t.TempDir()
	var a, b []record
	for i := 0; i < 10; i++ {
		v := 100 + float64(i)
		a = append(a, paperRecord(1, "x", v))
		b = append(b, paperRecord(1, "x", v*1.3))
	}
	var out strings.Builder
	if code := compareMain([]string{writeSet(t, dir, "a.jsonl", a...), writeSet(t, dir, "b.jsonl", b...)}, "..", &out); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "op_ms") {
			line = l
		}
	}
	if !strings.Contains(line, "(10)") || !strings.Contains(line, "worse") {
		t.Errorf("ten runs a side at one seed not compared as ten samples:\n%s", out.String())
	}
}

func writeSet(t *testing.T, dir, name string, recs ...record) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	return p
}

func paperRecord(seed int64, cpu string, v float64) record {
	return record{Workload: "cdagx-paper", Seed: seed, Host: host{CPU: cpu, NProc: 2},
		result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"op_ms": {v, "ms"}}}}
}

func TestCompareFlagsOtherHosts(t *testing.T) {
	dir := t.TempDir()
	a := writeSet(t, dir, "a.jsonl", paperRecord(1, "x", 100), paperRecord(2, "x", 101))
	b := writeSet(t, dir, "b.jsonl", paperRecord(1, "y", 100), paperRecord(2, "y", 101))
	var out strings.Builder
	if code := compareMain([]string{a, b}, "..", &out); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "cpu") {
		t.Errorf("different CPUs not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "op_ms") {
		t.Errorf("metric missing from the comparison:\n%s", out.String())
	}
}

// The metric lists in the code and in BENCHMARK.json must agree: the
// benchmark prints the code's lists, and BENCHMARK.json is what result
// consumers read them by.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, pl []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code's list")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads in BENCHMARK.json %v, code %v", names, workloadOrder)
	}
}

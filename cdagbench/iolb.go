package main

import (
	"context"
	"embed"
	"fmt"
	"runtime"
	"time"

	"cdagio"
	"cdagio/internal/bounds"
	"cdagio/internal/core"
	"cdagio/internal/wavefront"
)

// expected holds the outputs recorded when the benchmark was defined, which
// every run is checked against: the iolb reports of the four kernels and the
// hashes of the paper artifacts.
//
//go:embed expected
var expected embed.FS

// iolbKernel is one kernel of iolb-suite, analysed as
// `iolb -kernel <name> ... -candidates -1` would.  S stays fixed per kernel:
// Belady play time grows with S, so a drawn S would change which layer
// dominates the pass.  The sizes keep a pass near two seconds, so that a run
// holds a dozen or more passes and each kernel's median rests on as many
// samples.
type iolbKernel struct {
	name  string
	s     int
	build func() *cdagio.Graph
}

var iolbKernels = []iolbKernel{
	// -dim 2 -n 128 -steps 3 -S 256
	{"jacobi", 256, func() *cdagio.Graph { return cdagio.Jacobi(2, 128, 3, cdagio.StencilBox).Graph }},
	// -n 1024 -S 256
	{"fft", 256, func() *cdagio.Graph { return cdagio.FFT(1024) }},
	// -n 12 -S 64
	{"composite", 64, func() *cdagio.Graph { return cdagio.Composite(12).Graph }},
	// -dim 3 -n 8 -iters 2 -S 256
	{"cg", 256, func() *cdagio.Graph { return cdagio.CG(3, 8, 2).Graph }},
}

func expectedReport(kernel string) (string, error) {
	b, err := expected.ReadFile("expected/iolb-" + kernel + ".txt")
	return string(b), err
}

// analyzeKernel is one iolb-suite op: what iolb -candidates -1 does.
func analyzeKernel(ctx context.Context, k *iolbKernel) (*cdagio.Analysis, error) {
	ws := cdagio.Open(k.build())
	return ws.Analyze(ctx, cdagio.AnalyzeOptions{FastMemory: k.s, WavefrontCandidates: -1})
}

// checkAnalysis compares a kernel's report with the recorded one and checks
// that no lower bound exceeds the measured I/O.
func checkAnalysis(k *iolbKernel, a *cdagio.Analysis) error {
	want, err := expectedReport(k.name)
	if err != nil {
		return err
	}
	if got := a.Report(); got != want {
		return fmt.Errorf("%s: report differs from the expected one:\n%s\nwant:\n%s", k.name, got, want)
	}
	for _, lb := range a.LowerBounds {
		if lb.Value > float64(a.MeasuredIO) {
			return fmt.Errorf("%s: lower bound %v [%s] exceeds measured I/O %d", k.name, lb.Value, lb.Technique, a.MeasuredIO)
		}
	}
	return nil
}

// analyzeTraced makes the calls Workspace.Analyze makes for these kernels
// and options, in order, each inside a span, and composes the Analysis from
// their results.  The kernels have far more than 20 operations and the exact
// search is off, so Analyze runs neither the 2S-partition nor the exact
// optimal stage; the report check proves the composition is the same work.
func analyzeTraced(ctx context.Context, tr *tracer, parent, op int, k *iolbKernel, lt *layerTimes) (*cdagio.Analysis, error) {
	var ms0, ms1 runtime.MemStats

	sp := tr.begin("gen.build", parent, op, nil)
	t0 := time.Now()
	g := k.build()
	lt.build = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("core.open", parent, op, nil)
	t0 = time.Now()
	ws := cdagio.Open(g)
	lt.open = time.Since(t0)
	tr.end(sp)

	runtime.ReadMemStats(&ms0)
	sp = tr.begin("wavefront.wmax", parent, op, nil)
	t0 = time.Now()
	w, at, err := ws.WMax(ctx, nil, cdagio.WMaxOptions{})
	lt.wmax = time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	lt.wmaxAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&ms0)
	sp = tr.begin("pebble.play", parent, op, nil)
	t0 = time.Now()
	res, err := ws.PlayCtx(ctx, cdagio.RBW, k.s, nil, cdagio.Belady, false)
	lt.play = time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	lt.playAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return nil, err
	}
	lt.moves = int64(res.Moves)

	sp = tr.begin("core.compose", parent, op, nil)
	defer tr.end(sp)
	a := &core.Analysis{Graph: g, FastMemory: k.s, WMax: w, WMaxAt: at, MeasuredIO: int64(res.IO()), ScheduleUsed: "topological"}
	a.LowerBounds = []bounds.Bound{
		{Value: float64(g.NumInputs() + g.NumOutputs()), Kind: bounds.Lower, Technique: "compulsory |I| + |O|"},
		{Value: float64(wavefront.Lemma2Bound(w, k.s)), Kind: bounds.Lower, Technique: "min-cut wavefront (Lemma 2)",
			Assumptions: fmt.Sprintf("wmax >= %d at vertex %d", w, at)},
	}
	a.Upper = bounds.Bound{
		Value: float64(res.IO()), Kind: bounds.Upper,
		Technique:   "RBW schedule player (topological order, Belady eviction)",
		Assumptions: fmt.Sprintf("S=%d", k.s),
	}
	return a, nil
}

// layerTimes is what one traced kernel op spent in each layer.
type layerTimes struct {
	build, open, wmax, play time.Duration
	wmaxAlloc, playAlloc    uint64
	moves                   int64
}

// iolbFirstOp is iolb-suite's first op, run in a fresh process to time its
// set-up: the analysis of cg, checked.
func iolbFirstOp(ctx context.Context, root, dir string) error {
	cg := &iolbKernels[3]
	a, err := analyzeKernel(ctx, cg)
	if err != nil {
		return err
	}
	return checkAnalysis(cg, a)
}

// runIolb measures iolb-suite: whole passes over the four kernels until the
// measured time is up.  The inputs are fixed; the seed is only recorded.
func runIolb(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}, detail: map[string]metric{}}
	var setup *setups
	if e.tr == nil {
		var err error
		if setup, err = coldSetups("iolb-suite", e.root, e.work, e.cal); err != nil {
			return nil, err
		}
	}
	// One untimed op, so that this process's lazy start-up costs fall on
	// no measured op.
	if err := iolbFirstOp(ctx, e.root, e.work); err != nil {
		return nil, err
	}
	if e.tr != nil {
		return o, iolbTraced(ctx, e, o)
	}

	var passes []float64
	perKernel := map[string][]float64{}
	perKernelRSS := map[string][]float64{}
	start := time.Now()
	for time.Since(start) < e.seconds {
		if err := e.cal.measure(); err != nil {
			return nil, err
		}
		p0 := time.Now()
		for i := range iolbKernels {
			k := &iolbKernels[i]
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			a, err := analyzeKernel(ctx, k)
			perKernel[k.name] = append(perKernel[k.name], secs(time.Since(t0)))
			rss, rssErr := peakRSSMiB("self")
			if rssErr != nil {
				return nil, rssErr
			}
			perKernelRSS[k.name] = append(perKernelRSS[k.name], rss)
			o.attempted++
			if err == nil {
				err = checkAnalysis(k, a)
			}
			if err != nil {
				o.failed++
				e.logf("%v", err)
			}
		}
		passes = append(passes, secs(time.Since(p0)))
	}
	elapsed := time.Since(start)

	// Single analyses on a shared host scatter by ±10% and more, so a
	// pass's time is estimated as the sum of the kernels' median times: each
	// kernel's outliers stay its own.  The peak RSS of a pass is that of its
	// largest kernel, each kernel's peak taken as its median over the run.
	pass, rss := 0.0, 0.0
	for _, k := range kernelNames {
		rss = max(rss, median(perKernelRSS[k]))
		m := median(perKernel[k])
		o.detail["analyze_s."+k] = metric{m, "s"}
		pass += m
	}
	setup.put(o)
	o.metrics["peak_rss_mb"] = metric{rss, "MiB"}
	o.metrics["op_ms"] = metric{pass * 1000 * e.cal.scale(), "ms"}
	o.detail["analyze_s"] = metric{pass, "s"}
	e.cal.put(o)
	e.logf("%d passes in %.1fs: %.2f s median pass, %.2f s from kernel medians, reference %.0f ms",
		len(passes), elapsed.Seconds(), median(passes), pass, median(e.cal.samples)*1000)
	return o, nil
}

// iolbTraced is the traced iolb-suite run: untraced passes for a quarter of
// the time, to measure the tracing overhead against, then decomposed passes
// until the time is up.
func iolbTraced(ctx context.Context, e *env, o *outcome) error {
	var base []float64
	start := time.Now()
	for len(base) == 0 || time.Since(start) < e.seconds/4 {
		p0 := time.Now()
		for i := range iolbKernels {
			k := &iolbKernels[i]
			a, err := analyzeKernel(ctx, k)
			o.attempted++
			if err == nil {
				err = checkAnalysis(k, a)
			}
			if err != nil {
				o.failed++
				e.logf("%v", err)
			}
		}
		base = append(base, secs(time.Since(p0)))
	}
	untraced := median(base)

	type pass struct {
		wall   time.Duration
		per    map[string]layerTimes
		spanID int
	}
	var passes []pass
	op := 0
	for len(passes) == 0 || time.Since(start) < e.seconds {
		p := pass{per: map[string]layerTimes{}}
		p.spanID = e.tr.begin("iolb.pass", -1, -1, nil)
		p0 := time.Now()
		for i := range iolbKernels {
			k := &iolbKernels[i]
			op++
			sp := e.tr.begin("iolb.kernel", p.spanID, op, map[string]string{"kernel": k.name})
			var lt layerTimes
			a, err := analyzeTraced(ctx, e.tr, sp, op, k, &lt)
			e.tr.end(sp)
			o.attempted++
			if err == nil {
				err = checkAnalysis(k, a)
			}
			if err != nil {
				o.failed++
				e.logf("%v", err)
			}
			p.per[k.name] = lt
		}
		p.wall = time.Since(p0)
		e.tr.end(p.spanID)
		passes = append(passes, p)
	}

	// Per-pass totals, then medians over passes.
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	byPass := map[int]time.Duration{} // pass span → layer self time under it
	parentOf := map[int]int{}
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	for _, s := range spans {
		if s.Name == "iolb.pass" || s.Name == "iolb.kernel" {
			continue
		}
		root := s.Parent
		for parentOf[root] >= 0 {
			root = parentOf[root]
		}
		byPass[root] += self[s.ID]
	}

	series := map[string][]float64{}
	put := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, p := range passes {
		var build, open, wm, play time.Duration
		var wAlloc, pAlloc uint64
		var moves int64
		for _, k := range kernelNames {
			lt := p.per[k]
			build += lt.build
			open += lt.open
			wm += lt.wmax
			play += lt.play
			wAlloc += lt.wmaxAlloc
			pAlloc += lt.playAlloc
			moves += lt.moves
			put("gen.build_s."+k, secs(lt.build))
			put("wavefront.wmax_s."+k, secs(lt.wmax))
			put("pebble.play_s."+k, secs(lt.play))
		}
		put("gen.build_s", secs(build))
		put("core.open_ms", ms(open))
		put("wavefront.wmax_s", secs(wm))
		put("wavefront.alloc_mb", float64(wAlloc)/(1<<20))
		put("pebble.play_s", secs(play))
		put("pebble.alloc_mb", float64(pAlloc)/(1<<20))
		put("pebble.moves", float64(moves))
		put("trace.coverage", float64(byPass[p.spanID])/float64(p.wall))
		put("trace.overhead.analyze_s", secs(p.wall)-untraced)
	}
	for _, d := range perLayer {
		if xs, ok := series[d.name]; ok {
			o.metrics[d.name] = metric{median(xs), d.unit}
		}
	}
	o.detail["analyze_s.untraced"] = metric{untraced, "s"}
	e.logf("%d traced passes", len(passes))
	return nil
}

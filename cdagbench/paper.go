package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdagio/internal/exp/cache"
	"cdagio/internal/exp/emit"
	"cdagio/internal/exp/plan"
	"cdagio/internal/exp/run"
	"cdagio/internal/exp/spec"
)

// paperSpec is the checked-in spec cdagx-paper reproduces, relative to the
// checkout root.
const paperSpec = "specs/paper.yaml"

// paperCells is the number of cells a cold run of the paper spec executes.
const paperCells = 23

// paperWorkers is cdagx run's default -j.
const paperWorkers = 4

// paperRefEvery is how many cold runs go between two timings of the
// reference.
const paperRefEvery = 4

// paperRun is one cold `cdagx run specs/paper.yaml` in process: the calls
// cmd/cdagx makes, on a fresh journal under dir.  It returns the artifacts
// by file name.
type paperRun struct {
	compile, journalOpen, execute, write, journalClose time.Duration
	summary                                            run.Summary
	artifacts                                          map[string][]byte
	ir                                                 *spec.IR
	c                                                  *cache.Cache
}

func coldPaperRun(ctx context.Context, specPath, dir string) (*paperRun, error) {
	r := &paperRun{artifacts: map[string][]byte{}}
	t0 := time.Now()
	s, err := spec.Load(specPath)
	if err != nil {
		return nil, err
	}
	ir, err := spec.Compile(s, spec.Options{})
	if err != nil {
		return nil, err
	}
	pl := plan.New(ir)
	r.ir = ir
	t1 := time.Now()
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res, err := run.Execute(ctx, pl, run.Options{Workers: paperWorkers, Cache: c})
	if err != nil {
		c.Close()
		return nil, err
	}
	t3 := time.Now()
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o777); err != nil {
		c.Close()
		return nil, err
	}
	for _, f := range []struct {
		name string
		body []byte
	}{
		{"EXPERIMENTS.gen.md", res.Outputs.Markdown},
		{"results.csv", res.Outputs.CSV},
		{"results.json", res.Outputs.JSON},
	} {
		if err := os.WriteFile(filepath.Join(out, f.name), f.body, 0o666); err != nil {
			c.Close()
			return nil, err
		}
		r.artifacts[f.name] = f.body
	}
	t4 := time.Now()
	if err := c.Close(); err != nil {
		return nil, err
	}
	t5 := time.Now()
	r.c = c // a closed cache still answers Get from memory
	r.compile, r.journalOpen, r.execute, r.write, r.journalClose = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	r.summary = res.Summary
	return r, nil
}

// expectedArtifacts returns the recorded artifact hashes by file name.
func expectedArtifacts() (map[string]string, error) {
	data, err := expected.ReadFile("expected/paper.sha256")
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			want[name] = sum
		}
	}
	return want, nil
}

// checkPaperRun checks a cold run: every cell executed, none from cache, and
// artifacts byte-identical to the recorded ones.
func checkPaperRun(r *paperRun, want map[string]string) error {
	if r.summary.Executed != paperCells || r.summary.CacheHits != 0 || r.summary.Cells != paperCells {
		return fmt.Errorf("cold run: %d cells, %d executed, %d cache hits; want %d, %d, 0",
			r.summary.Cells, r.summary.Executed, r.summary.CacheHits, paperCells, paperCells)
	}
	if len(r.artifacts) != len(want) {
		return fmt.Errorf("cold run wrote %d artifacts, want %d", len(r.artifacts), len(want))
	}
	for name, body := range r.artifacts {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			return fmt.Errorf("artifact %s: sha256 %s, want %s", name, got, want[name])
		}
	}
	return nil
}

// paperFirstOp is cdagx-paper's first op, run in a fresh process to time
// its set-up: one cold run in dir, checked.
func paperFirstOp(ctx context.Context, root, dir string) error {
	want, err := expectedArtifacts()
	if err != nil {
		return err
	}
	r, err := coldPaperRun(ctx, filepath.Join(root, paperSpec), dir)
	if err != nil {
		return err
	}
	return checkPaperRun(r, want)
}

// runPaper measures cdagx-paper: cold runs until the time is up.  The input
// is the checked-in spec; the seed is only recorded.
func runPaper(ctx context.Context, e *env) (*outcome, error) {
	specPath := filepath.Join(e.root, paperSpec)
	want, err := expectedArtifacts()
	if err != nil {
		return nil, err
	}
	n := 0
	cold := func() (*paperRun, error) {
		n++
		dir := filepath.Join(e.work, fmt.Sprintf("run-%d", n))
		defer os.RemoveAll(dir)
		return coldPaperRun(ctx, specPath, dir)
	}

	o := &outcome{metrics: map[string]metric{}, detail: map[string]metric{}}
	var setup *setups
	if e.tr == nil {
		if setup, err = coldSetups("cdagx-paper", e.root, e.work, e.cal); err != nil {
			return nil, err
		}
	}
	// One untimed cold run, so that this process's lazy start-up costs fall
	// on no measured op.
	if r, err := cold(); err != nil {
		return nil, err
	} else if err := checkPaperRun(r, want); err != nil {
		return nil, err
	}
	if e.tr != nil {
		return o, paperTraced(ctx, e, o, specPath, want, cold)
	}

	var walls, rsss []float64
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds; i++ {
		// The reference before every few cold runs, about a second apart.
		if i%paperRefEvery == 0 {
			if err := e.cal.measure(); err != nil {
				return nil, err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := cold()
		walls = append(walls, ms(time.Since(t0)))
		rss, rssErr := peakRSSMiB("self")
		if rssErr != nil {
			return nil, rssErr
		}
		rsss = append(rsss, rss)
		o.attempted++
		if err == nil {
			err = checkPaperRun(r, want)
		}
		if err != nil {
			o.failed++
			e.logf("%v", err)
		}
	}
	elapsed := time.Since(start)
	setup.put(o)
	// The peak RSS of one cold run, median over the run's cold runs.
	o.metrics["peak_rss_mb"] = metric{median(rsss), "MiB"}
	o.metrics["op_ms"] = metric{median(walls) * e.cal.scale(), "ms"}
	o.detail["cold_run_ms"] = metric{median(walls), "ms"}
	e.cal.put(o)
	e.logf("%d cold runs in %.1fs, reference %.0f ms", o.attempted, elapsed.Seconds(), median(e.cal.samples)*1000)
	return o, nil
}

// paperTraced is the traced cdagx-paper run: untraced cold runs for a third
// of the time (the overhead baseline), cold runs with each stage in a span
// for another third, then every experiment alone through run.Execute at one
// worker, repeated until the time is up.
func paperTraced(ctx context.Context, e *env, o *outcome, specPath string, want map[string]string,
	cold func() (*paperRun, error)) error {
	third := e.seconds / 3
	var base []float64
	start := time.Now()
	for len(base) == 0 || time.Since(start) < third {
		t0 := time.Now()
		r, err := cold()
		base = append(base, ms(time.Since(t0)))
		o.attempted++
		if err == nil {
			err = checkPaperRun(r, want)
		}
		if err != nil {
			o.failed++
			e.logf("%v", err)
		}
	}

	series := map[string][]float64{}
	put := func(name string, v float64) { series[name] = append(series[name], v) }
	var traced []float64
	start = time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < third; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("traced-%d", i))
		t0 := time.Now()
		root := e.tr.begin("cdagx.run", -1, i, nil)
		r, err := coldPaperRun(ctx, specPath, dir)
		end := time.Now()
		e.tr.end(root)
		traced = append(traced, ms(end.Sub(t0)))
		o.attempted++
		if err == nil {
			err = checkPaperRun(r, want)
		}
		if err != nil {
			o.failed++
			e.logf("%v", err)
			os.RemoveAll(dir)
			continue
		}
		// The stage spans, laid end to end from the run's start.
		at := t0
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"exp.compile", r.compile}, {"exp.journal.open", r.journalOpen}, {"exp.execute", r.execute},
			{"exp.write", r.write}, {"exp.journal.close", r.journalClose},
		} {
			e.tr.add(st.name, at, at.Add(st.d), root, i, nil)
			at = at.Add(st.d)
		}
		// Render again from the journaled cells, to time emit on its own.
		results := map[string][]byte{}
		for _, c := range r.ir.Cells {
			results[c.Key], _ = r.c.Get(c.Key)
		}
		sp := e.tr.begin("exp.emit", -1, i, nil)
		t1 := time.Now()
		_, err = emit.Render(r.ir, results, nil)
		put("exp.emit_ms", ms(time.Since(t1)))
		e.tr.end(sp)
		if err != nil {
			return err
		}
		os.RemoveAll(dir)
		put("exp.compile_ms", ms(r.compile))
		put("exp.execute_ms", ms(r.execute))
		put("exp.journal_ms", ms(r.journalOpen+r.journalClose))
		put("exp.cells_executed", float64(r.summary.Executed))
		put("exp.cache_hits", float64(r.summary.CacheHits))
	}

	// Every experiment alone, serially, with no journal.
	s, err := spec.Load(specPath)
	if err != nil {
		return err
	}
	rounds := 0
	start = time.Now()
	for rounds == 0 || time.Since(start) < third {
		rounds++
		for _, x := range s.Experiments {
			one := *s
			one.Experiments = []spec.Experiment{x}
			ir, err := spec.Compile(&one, spec.Options{})
			if err != nil {
				return err
			}
			sp := e.tr.begin("exp.experiment", -1, -1, map[string]string{"experiment": x.Name})
			t0 := time.Now()
			_, err = run.Execute(ctx, plan.New(ir), run.Options{Workers: 1})
			put("exp.cell_ms."+x.Name, ms(time.Since(t0)))
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", x.Name, err)
			}
		}
	}

	for _, d := range perLayer {
		if xs, ok := series[d.name]; ok {
			o.metrics[d.name] = metric{median(xs), d.unit}
		}
	}
	o.metrics["trace.overhead.cold_run_ms"] = metric{median(traced) - median(base), "ms"}
	o.detail["cold_run_ms.untraced"] = metric{median(base), "ms"}
	o.detail["cold_run_ms.traced"] = metric{median(traced), "ms"}
	return nil
}

// Package run executes compiled experiment plans: it probes the result
// cache, builds only the workloads that cache-missed cells still need, runs
// the missed cells over a bounded worker pool — locally through
// serve.RunEngine and the Workspace seam, or against a remote cdagd — and
// renders the emitted artifacts.  Execution is deterministic at every worker
// count: the journal append order and the rendered bytes depend only on the
// spec and the engines, never on scheduling.
package run

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"cdagio/internal/core"
	"cdagio/internal/exp/cache"
	"cdagio/internal/exp/emit"
	"cdagio/internal/exp/plan"
	"cdagio/internal/exp/spec"
	"cdagio/internal/gen"
	"cdagio/internal/serve"
)

// Options configures an execution.
type Options struct {
	// Workers bounds the cell worker pool; <= 0 selects 4.
	Workers int
	// Cache, when non-nil, serves previously journaled cells and absorbs
	// newly computed ones.
	Cache *cache.Cache
	// Remote, when non-nil, dispatches engine-expressible cells to a running
	// cdagd instead of executing them in process.  Local-only cells (table1,
	// balance, solver, and matrix cells needing typed generator results)
	// always run in process.
	Remote *serve.Client
	// Short skips heavy cells that are not already cached.
	Short bool
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// CellOutcome records how one cell's result was obtained.
type CellOutcome struct {
	Key     string
	Cached  bool
	Skipped bool
	Remote  bool
}

// Summary aggregates the execution.
type Summary struct {
	Cells     int `json:"cells"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`
	Skipped   int `json:"skipped"`
	Remote    int `json:"remote"`
}

// Result is the outcome of Execute.
type Result struct {
	Outcomes []CellOutcome
	Outputs  emit.Outputs
	Summary  Summary
}

// Execute runs the plan.
func Execute(ctx context.Context, pl *plan.Plan, opts Options) (*Result, error) {
	ir := pl.IR
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	n := len(ir.Cells)
	results := make(map[string][]byte, n)
	skipped := map[string]bool{}
	outcomes := make([]CellOutcome, n)
	var sum Summary
	sum.Cells = n

	// Probe the cache: every hit is final, every miss is a candidate job.
	var missed []int
	for i := range ir.Cells {
		c := &ir.Cells[i]
		outcomes[i].Key = c.Key
		if opts.Cache != nil {
			if body, ok := opts.Cache.Get(c.Key); ok {
				results[c.Key] = body
				outcomes[i].Cached = true
				sum.CacheHits++
				continue
			}
		}
		if opts.Short && c.Heavy {
			skipped[c.Key] = true
			outcomes[i].Skipped = true
			sum.Skipped++
			continue
		}
		missed = append(missed, i)
	}
	logf("%d cells: %d cached, %d to run, %d skipped", n, sum.CacheHits, len(missed), sum.Skipped)

	// Build the workloads that missed cells still reference (the Build layer
	// of the plan); fully cached workloads are never materialized.
	builds := map[string]*built{}
	for _, i := range missed {
		w := ir.Cells[i].Workload
		if w == "" || builds[w] != nil {
			continue
		}
		// The catalog builds a workload exactly like a daemon upload.
		wl, _ := ir.WorkloadByName(w)
		b, err := gen.Build(&wl.Spec)
		if err != nil {
			return nil, fmt.Errorf("build %q: %w", w, err)
		}
		builds[w] = &built{Built: b, ws: core.NewWorkspace(b.Graph)}
		if opts.Remote != nil {
			id, err := opts.Remote.UploadGen(ctx, &wl.Spec)
			if err != nil {
				return nil, fmt.Errorf("upload %q: %w", w, err)
			}
			if want := serve.HashID([]byte(gen.Key(&wl.Spec))); id != want {
				return nil, fmt.Errorf("upload %q: daemon graph id %s, expected %s", w, id, want)
			}
		}
		logf("built %s (%d vertices)", w, b.Graph.NumVertices())
	}

	// Run missed cells over the pool.  Workers claim cells through an atomic
	// cursor; each result lands in its own slot, so the output is identical
	// at every worker count and the first error (in cell order) wins.
	bodies := make([][]byte, len(missed))
	errs := make([]error, len(missed))
	remote := make([]bool, len(missed))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot := int(cursor.Add(1)) - 1
				if slot >= len(missed) || ctx.Err() != nil {
					return
				}
				c := &ir.Cells[missed[slot]]
				body, wasRemote, err := runCell(ctx, ir, c, builds[c.Workload], opts.Remote)
				bodies[slot], remote[slot], errs[slot] = body, wasRemote, err
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for slot, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", ir.Cells[missed[slot]].Label(), err)
		}
	}

	// Journal in cell order — deterministic journal bytes for a given miss
	// set — then mark outcomes.
	for slot, i := range missed {
		c := &ir.Cells[i]
		if opts.Cache != nil {
			if err := opts.Cache.Put(c.Key, bodies[slot]); err != nil {
				return nil, err
			}
		}
		results[c.Key] = bodies[slot]
		outcomes[i].Remote = remote[slot]
		if remote[slot] {
			sum.Remote++
		}
		sum.Executed++
	}

	outputs, err := emit.Render(ir, results, skipped)
	if err != nil {
		return nil, err
	}
	logf("executed %d cells (%d remote), emitted %d experiments", sum.Executed, sum.Remote, len(ir.Experiments))
	return &Result{Outcomes: outcomes, Outputs: outputs, Summary: sum}, nil
}

// runCell computes one cell body.  Engine-expressible cells go to the daemon
// when a remote client is configured; everything else — and every local-only
// kind — runs in process.  Both paths marshal the same response values, so
// the cached bytes agree regardless of dispatch.
func runCell(ctx context.Context, ir *spec.IR, c *spec.Cell, b *built, remote *serve.Client) ([]byte, bool, error) {
	if c.Engine != "" {
		if remote != nil {
			body, err := remote.Engine(ctx, c.GraphID, c.Engine, c.Body)
			return body, true, err
		}
		out, err := serve.RunEngine(ctx, b.ws, c.Engine, c.Body, serve.EngineLimits{})
		if err != nil {
			return nil, false, err
		}
		body, err := json.Marshal(out)
		return body, false, err
	}
	body, err := localCell(ctx, ir, c, b)
	return body, false, err
}

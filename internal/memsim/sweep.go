package memsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"cdagio/internal/cdag"
	"cdagio/internal/fault"
)

// runJob executes one job under the worker recover wrapper: a panic inside
// the simulator (or injected at fault.PointMemsimSweepWorker) becomes that
// job's error instead of killing the worker goroutine and the process with
// it.
func runJob(ctx context.Context, g *cdag.Graph, job Job) (stats *Stats, err error) {
	if perr := fault.Capture(fault.PointMemsimSweepWorker, func() {
		fault.Inject(fault.PointMemsimSweepWorker)
		stats, err = RunCtx(ctx, g, job.Cfg, job.Order, job.Owner)
	}); perr != nil {
		return nil, perr
	}
	return stats, err
}

// Job is one simulation of a sweep: a machine configuration, a schedule and
// an optional vertex→node assignment, all against a shared graph.
type Job struct {
	Cfg   Config
	Order []cdag.VertexID
	Owner []int
}

// SweepCtx runs the jobs over a bounded worker pool and returns one Stats per
// job, in job order.  Each job is an independent RunCtx against the shared
// (read-only) graph, so the results — including the error, which is the one
// the lowest-indexed failing job produced — are deterministically identical
// to running the jobs serially, for every worker count.  workers ≤ 0 selects
// runtime.GOMAXPROCS(0).
//
// This is the engine behind the per-S tightness sweeps and per-schedule
// ablations of Section 5.4: the schedules are precomputed and the memory
// simulations, which dominate the sweep, fan out.
//
// ctx bounds the sweep: workers re-check it before claiming each job, and the
// jobs themselves run under it (RunCtx checks it every 4096 schedule steps),
// so cancellation latency is bounded by a few thousand simulation steps per
// in-flight worker — never by the length of the job list or the size of one
// job.  A cancelled sweep returns (nil, ctx.Err()); partial results are
// discarded.
func SweepCtx(ctx context.Context, g *cdag.Graph, jobs []Job, workers int) ([]*Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Compile any staged edges before the workers start: the lazy CSR
	// materialization is not synchronized.
	g.Materialize()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]*Stats, len(jobs))
	errs := make([]error, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			if ctx.Err() != nil {
				break
			}
			out[i], errs[i] = runJob(ctx, g, j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					if ctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					out[i], errs[i] = runJob(ctx, g, jobs[i])
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The error reported is the one the lowest-indexed failing job produced,
	// matching a serial run.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

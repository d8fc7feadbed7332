package main

// metricDef declares one metric the benchmark reports.  The end-to-end and
// per-layer lists must match BENCHMARK.json at the repository root; a test
// holds them together.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.  Every workload reports each
// of them, so that every metric can be compared on every workload; README.md
// gives each one's definition per workload.  Each is measured so that the
// host's speed, which swings by up to a factor of two from minute to minute
// on a shared host, moves it as little as possible: wall times scaled by the
// reference (calib.go) or CPU times.  The workload metrics (detailDefs) keep
// the times as measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"op_ms", "ms", "lower"},
}

// The kernels of iolb-suite, the request kinds of cdagd-mix and the
// experiments of specs/paper.yaml name the per-layer metrics below.
var (
	kernelNames = []string{"jacobi", "fft", "composite", "cg"}
	engineKinds = []string{"analyze", "wmax", "wavefront", "dominator", "play", "prbw", "simulate", "sweep"}
	paperExps   = []string{
		"table1", "fig1-parallel-play", "fig2-heat-solve", "fig2-heat-play", "fig2-heat-graph",
		"fig3-cg-solve", "fig3-cg-graph", "fig4-gmres-solve", "fig4-gmres-graph", "sec3-composite",
		"cg-balance", "gmres-balance", "jacobi-balance", "jacobi-tightness", "matmul-io",
		"parallel-scaling", "heat-analyze", "heat-wmax",
	}
)

// perLayer are the metrics of a traced run.  A workload reports 0 for a layer
// it does not load.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }
	add("gen.build_s", "s", "lower")
	for _, k := range kernelNames {
		add("gen.build_s."+k, "s", "lower")
	}
	add("core.open_ms", "ms", "lower")
	add("wavefront.wmax_s", "s", "lower")
	for _, k := range kernelNames {
		add("wavefront.wmax_s."+k, "s", "lower")
	}
	add("wavefront.alloc_mb", "MiB", "lower")
	add("graphalg.cut_ms", "ms", "lower")
	add("pebble.play_s", "s", "lower")
	for _, k := range kernelNames {
		add("pebble.play_s."+k, "s", "lower")
	}
	add("pebble.moves", "count", "lower")
	add("pebble.alloc_mb", "MiB", "lower")
	add("prbw.play_ms", "ms", "lower")
	add("memsim.run_ms", "ms", "lower")
	add("cdag.decode_ms", "ms", "lower")
	add("cdag.canon_ms", "ms", "lower")
	add("cdag.validate_ms", "ms", "lower")
	add("store.append_ms", "ms", "lower")
	add("store.log_mb", "MiB", "lower")
	add("store.append_errors", "count", "lower")
	for _, k := range append([]string{"hit", "upload"}, engineKinds...) {
		add("serve.overhead_ms."+k, "ms", "lower")
	}
	add("serve.memo_hit_ratio", "ratio", "higher")
	add("serve.evictions", "count", "lower")
	add("serve.cache_mb", "MiB", "lower")
	add("serve.rejects", "count", "lower")
	add("exp.compile_ms", "ms", "lower")
	add("exp.execute_ms", "ms", "lower")
	add("exp.emit_ms", "ms", "lower")
	add("exp.journal_ms", "ms", "lower")
	for _, e := range paperExps {
		add("exp.cell_ms."+e, "ms", "lower")
	}
	add("exp.cells_executed", "count", "lower")
	add("exp.cache_hits", "count", "higher")
	add("trace.coverage", "ratio", "higher")
	add("trace.overhead.analyze_s", "s", "lower")
	add("trace.overhead.req_per_s", "1/s", "lower")
	add("trace.overhead.cold_run_ms", "ms", "lower")
	return d
}()

// detailDefs are the workloads' own named metrics, recorded in result sets
// and compared by the compare command next to the end-to-end metrics, each
// with its direction and bound.  They are times and rates as measured, which
// the host's speed moves: where their spread exceeds the bound, the
// comparator calls them unresolved.  The reference's own time (ref_ms)
// measures the host, not the program, and is not compared.
var detailDefs = map[string]struct {
	better string
	bound  float64
}{
	"setup_wall_s":   {"lower", 0.25},
	"analyze_s":      {"lower", 0.25},
	"cold_run_ms":    {"lower", 0.25},
	"compute_p50_ms": {"lower", 0.25},
	"hit_p50_ms":     {"lower", 0.25},
	"upload_p50_ms":  {"lower", 0.25},
	"req_per_s":      {"higher", 0.25},
	"compute_p99_ms": {"lower", 0.25},
	"hit_p99_ms":     {"lower", 0.25},
	"upload_p90_ms":  {"lower", 0.25},
	"fail_ratio":     {"lower", 0},
}

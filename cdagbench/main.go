// Command cdagbench is the repository's benchmark.  It measures the three
// ways users get data-movement lower bounds out of this repository — an iolb
// analysis, a cdagd request and a cold cdagx run of the paper spec — checks
// every output, and prints one JSON result line:
//
//	bash cdagbench/run.sh --workload iolb-suite --seed 1 --seconds 25 --trace 0
//	bash cdagbench/run.sh --workload all --seed 1 --out results.jsonl
//	bash cdagbench/run.sh compare before.jsonl after.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run times the calls into each layer and the result carries
// the per-layer metrics.  README.md in this directory explains the workloads,
// the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored in a result set: the printed result, the
// workload's own named metrics (Detail) and the host fingerprint.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Host     host    `json:"host"`
	result
	Detail map[string]metric `json:"detail"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	root    string      // repository checkout
	cdagd   string      // built cdagd binary
	work    string      // scratch directory inside the checkout
	tr      *tracer     // set in traced runs
	cal     *calibrator // set in untraced runs of in-process workloads
	logf    func(format string, args ...any)
}

// outcome is a workload's measurement before it is rendered.
type outcome struct {
	attempted, failed int
	// metrics are the end-to-end metrics (untraced) or the per-layer
	// metrics (traced); detail holds the workload's own named metrics.
	metrics map[string]metric
	detail  map[string]metric
}

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"iolb-suite":  runIolb,
	"cdagd-mix":   runMix,
	"cdagx-paper": runPaper,
}

var workloadOrder = []string{"iolb-suite", "cdagd-mix", "cdagx-paper"}

// firstOps run the first op of an in-process workload in a fresh process:
// its setup_s is the CPU time such a process takes to finish that op, lazy
// start-up costs included.
var firstOps = map[string]func(ctx context.Context, root, dir string) error{
	"iolb-suite":  iolbFirstOp,
	"cdagx-paper": paperFirstOp,
}

// setupRepeats is how often a workload sets up; the median is its setup_s.
const setupRepeats = 5

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cdagbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "iolb-suite | cdagd-mix | cdagx-paper | all")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer measurement instead of the end-to-end one")
	root := fs.String("root", ".", "repository checkout to measure")
	cdagd := fs.String("cdagd", "", "cdagd binary built from the checkout (cdagd-mix)")
	work := fs.String("work", ".bench_build/work", "scratch directory for journals and spans")
	out := fs.String("out", "", "append each run's record to this JSON-lines result set")
	firstOp := fs.String("first-op", "", "run only this workload's first op, in -work, and exit (how setup_s is timed)")
	reference := fs.Bool("reference", false, "time the reference task once per byte read from stdin (how the host's speed is measured)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reference {
		return referenceMain(os.Stdin, stdout)
	}
	if *firstOp != "" {
		run := firstOps[*firstOp]
		if run == nil {
			fmt.Fprintf(os.Stderr, "cdagbench: workload %q has no first op\n", *firstOp)
			return 2
		}
		if err := run(context.Background(), *root, *work); err != nil {
			fmt.Fprintf(os.Stderr, "cdagbench: %s first op: %v\n", *firstOp, err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:], *root, stdout)
		}
		fmt.Fprintf(os.Stderr, "cdagbench: unknown command %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cdagbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "cdagbench: --seconds must be positive")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout)
	}
	if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "cdagbench: unknown workload %q\n", *workload)
		return 2
	}

	h := fingerprint(*root)
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s dirty=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Commit, h.Dirty)
	rec, err := measure(*workload, *seed, *seconds, *trace == 1, *root, *cdagd, *work, h, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdagbench: %s: %v\n", *workload, err)
		return 2
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "cdagbench: %v\n", err)
			return 2
		}
	}
	return printResult(stdout, rec.result)
}

// runAll runs each workload in a process of its own, with the given
// arguments, so that each record carries that workload's own peak RSS and
// set-up time and not the traces of the workloads run before it.  It prints
// the children's output and one result combining theirs, with metric names
// prefixed by the workload.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdagbench: %v\n", err)
		return 2
	}
	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadOrder {
		res, err := runChild(self, append(append([]string(nil), args...), "-workload", name), stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdagbench: %s: %v\n", name, err)
			return 2
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, m := range res.Metrics {
			combined.Metrics[name+"/"+k] = m
		}
	}
	return printResult(stdout, combined)
}

// runChild runs this benchmark with args, copies its output to stdout but
// for the result line, and returns that result.
func runChild(self string, args []string, stdout io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var buf strings.Builder
	cmd.Stdout = &buf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		// Exit code 1 is a run with failed ops, which still printed its
		// result; anything else printed none.
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

// printResult prints the result line and returns the exit code: 1 when an
// op failed or an output was wrong.
func printResult(stdout io.Writer, res result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdagbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// setups are a run's set-ups: the CPU time each took, whose median is
// setup_s, and its wall time, in seconds.  Set-up is timed in CPU time
// because it is too short for the reference to scale it: a fresh process, or
// a daemon's boot, takes a fraction of a second.
type setups struct{ cpu, wall []float64 }

func (s *setups) put(o *outcome) {
	o.metrics["setup_s"] = metric{median(s.cpu), "s"}
	o.detail["setup_wall_s"] = metric{median(s.wall), "s"}
}

// coldSetups times setupRepeats fresh processes of this benchmark, each
// running the workload's first op on a scratch directory under work.  The
// reference is timed after each.
func coldSetups(name, root, work string, cal *calibrator) (*setups, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	st := &setups{}
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("first-op-%d", i))
		cmd := exec.Command(self, "-first-op", name, "-root", root, "-work", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i, err)
		}
		st.wall = append(st.wall, secs(d))
		st.cpu = append(st.cpu, secs(cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime()))
		if err := cal.measure(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// measure runs one workload and renders its record.
func measure(name string, seed int64, seconds float64, traced bool, root, cdagd, work string, h host, stdout io.Writer) (*record, error) {
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		root:    root,
		cdagd:   cdagd,
		work:    filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid())),
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, name+": "+format+"\n", args...)
		},
	}
	if traced {
		e.tr = newTracer()
	} else if name != "cdagd-mix" {
		// The in-process workloads' times are scaled by the reference.
		cal, err := startCalibrator()
		if err != nil {
			return nil, err
		}
		defer cal.close()
		e.cal = cal
	}
	if err := os.MkdirAll(e.work, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	o, err := workloads[name](context.Background(), e)
	if err != nil {
		return nil, err
	}
	if traced {
		p := spanPath(work, name, seed)
		if err := e.tr.write(p); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "%s: spans written to %s\n", name, p)
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range want {
		m, ok := o.metrics[d.name]
		switch {
		case ok:
			metrics[d.name] = m
		case traced:
			// A layer the workload does not load did no work on it.
			metrics[d.name] = metric{Value: 0, Unit: d.unit}
		default:
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
	}
	for k := range o.metrics {
		if _, ok := metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation completed in the measured time")
	}
	o.detail["fail_ratio"] = metric{Value: float64(o.failed) / float64(o.attempted), Unit: "ratio"}

	rec := &record{
		Workload: name, Seed: seed, Trace: btoi(traced), Seconds: seconds, Host: h,
		result: result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics},
		Detail: o.detail,
	}
	printMetrics(stdout, name, "workload metrics", o.detail)
	printMetrics(stdout, name, "result metrics", metrics)
	fmt.Fprintf(stdout, "%s: %d ops attempted, %d failed\n", name, o.attempted, o.failed)
	return rec, nil
}

func printMetrics(w io.Writer, workload, title string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: %s\n", workload, title)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result set: %w", err)
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

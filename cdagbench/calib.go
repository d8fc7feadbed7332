package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The op times of the in-process workloads (op_ms of iolb-suite and
// cdagx-paper) are scaled to a fixed host speed.  On a shared host the same
// op takes up to twice as long from one minute to the next with nothing
// changed but the neighbours' load, and such spells last as long as a run,
// so raw wall times of whole runs scatter past any useful bound.  A run
// therefore also times a fixed reference task, between its ops, and reports
// each time as it would be on a host where the reference takes refNominal:
// time × refNominal / (median reference time of the run).  The raw wall
// times and the reference's median are recorded beside them, as workload
// metrics.
//
// The reference is stdlib-only code in this file, so a change to the
// repository cannot change it: breadth-first searches over a fixed random
// graph and a sort, the pointer chasing and branching the analyses do, on
// two goroutines, like the parallel scan on the two-vCPU host.  It allocates
// nothing after start-up.
const refNominal = 100 * time.Millisecond

const (
	refVertices = 1 << 17
	refDegree   = 6
	refSort     = 1 << 18
)

// refTask is one goroutine's share of the reference: its graph and scratch.
type refTask struct {
	off, adj   []int32
	dist, q    []int32
	keys, sort []uint64
}

func newRefTask(seed int64) *refTask {
	r := rand.New(rand.NewSource(seed))
	t := &refTask{
		off:  make([]int32, refVertices+1),
		adj:  make([]int32, 0, refVertices*refDegree),
		dist: make([]int32, refVertices),
		q:    make([]int32, 0, refVertices),
		keys: make([]uint64, refSort),
		sort: make([]uint64, refSort),
	}
	for v := 0; v < refVertices; v++ {
		for j := 0; j < refDegree; j++ {
			t.adj = append(t.adj, int32(r.Intn(refVertices)))
		}
		t.off[v+1] = int32(len(t.adj))
	}
	for i := range t.keys {
		t.keys[i] = r.Uint64()
	}
	return t
}

// run does the task's share: two searches and one sort, and returns a
// checksum of them.
func (t *refTask) run() int {
	sum := 0
	for src := int32(0); src < 2; src++ {
		for i := range t.dist {
			t.dist[i] = -1
		}
		t.dist[src] = 0
		q := append(t.q[:0], src)
		for h := 0; h < len(q); h++ {
			v := q[h]
			for _, u := range t.adj[t.off[v]:t.off[v+1]] {
				if t.dist[u] < 0 {
					t.dist[u] = t.dist[v] + 1
					q = append(q, u)
				}
			}
		}
		sum += len(q)
	}
	copy(t.sort, t.keys)
	slices.Sort(t.sort)
	return sum + int(t.sort[refSort/2]&1)
}

// runReference runs the reference once, each task on a goroutine of its
// own, and returns its wall time and a checksum that keeps the work from
// being optimised away.
func runReference(tasks []*refTask) (time.Duration, int) {
	var wg sync.WaitGroup
	sums := make([]int, len(tasks))
	t0 := time.Now()
	for i, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = t.run()
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	sum := 0
	for _, x := range sums {
		sum += x
	}
	return d, sum
}

// referenceMain is the reference process (-reference): for every byte read
// from in it runs the reference and writes its time in nanoseconds as a
// line to out, until in is closed.  It runs in a process of its own so that
// its memory is in no workload's peak RSS and its collections wait for no
// workload's heap.
func referenceMain(in io.Reader, out io.Writer) int {
	tasks := []*refTask{newRefTask(1), newRefTask(2)}
	runReference(tasks) // touches the tasks' memory
	w := bufio.NewWriter(out)
	buf := make([]byte, 1)
	for {
		if _, err := in.Read(buf); err != nil {
			return 0
		}
		d, sum := runReference(tasks)
		fmt.Fprintf(w, "%d %d\n", d.Nanoseconds(), sum)
		if err := w.Flush(); err != nil {
			return 1
		}
	}
}

// calibrator drives the reference process and keeps its times.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64 // seconds
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-reference")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference process: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// measure runs the reference once and records its time.  Call it only while
// the workload is idle.
func (c *calibrator) measure() error {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	var ns, sum int64
	if _, err := fmt.Sscan(line, &ns, &sum); err != nil {
		return fmt.Errorf("reference process: %q: %w", line, err)
	}
	c.samples = append(c.samples, time.Duration(ns).Seconds())
	return nil
}

// close ends the reference process and waits for it.
func (c *calibrator) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// scale is the factor that turns a time measured in this run into a time at
// the nominal host speed.
func (c *calibrator) scale() float64 { return refNominal.Seconds() / median(c.samples) }

// put records the reference's median time, which says how fast the host was.
func (c *calibrator) put(o *outcome) {
	o.detail["ref_ms"] = metric{median(c.samples) * 1000, "ms"}
}

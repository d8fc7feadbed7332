package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint stored with every result: two result sets are
// comparable only when their fingerprints agree.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func fingerprint(root string) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	// A checkout without .git (an exported tree) has no commit to name.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
		if out, err := gitOutput(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			h.Dirty = strconv.FormatBool(len(bytes.TrimSpace(out)) > 0)
		}
	}
	return h
}

func gitOutput(root string, args ...string) ([]byte, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	return cmd.Output()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// differences reports the fingerprint fields that differ between a and b,
// ignoring the commit and dirty flag, which are expected to differ.
func (a host) differences(b host) []string {
	var d []string
	if a.CPU != b.CPU {
		d = append(d, "cpu")
	}
	if a.NProc != b.NProc {
		d = append(d, "nproc")
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, "gomaxprocs")
	}
	if a.GoVersion != b.GoVersion {
		d = append(d, "go")
	}
	if a.Kernel != b.Kernel {
		d = append(d, "kernel")
	}
	return d
}

// peakRSSMiB returns the peak resident set (VmHWM) of process pid ("self"
// for this process), in MiB.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// resetPeakRSS returns the memory the garbage collector can free to the
// system and sets this process's peak resident set (VmHWM) back to what is
// left, so that the next read is the peak of what runs in between, as if it
// ran in a fresh process.  Without it, where the collector last ran moves a
// single kernel's peak by a fifth.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procCPU returns the CPU time the running process pid has used so far: the
// sum over its threads of the run time in /proc/<pid>/task/*/schedstat, in
// nanoseconds.  Time the host of a virtual machine gives the CPU to others
// (steal) and time spent waiting for a CPU are not in it.
func procCPU(pid string) (time.Duration, error) {
	tasks, err := os.ReadDir("/proc/" + pid + "/task")
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, os.ErrInvalid
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

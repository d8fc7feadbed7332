package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set to 1, makes the test binary run main() with its
// command line instead of the tests, so a test can drive the real CLI in a
// child process and observe its exit status.
const runMainEnv = "PEBBLESIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pebblesim runs the CLI in a child process and returns its stdout, its
// stderr and the error of the run (an *exec.ExitError for a non-zero exit).
func pebblesim(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestReportsMatchGolden plays four P-RBW games and two sequential games and
// compares each report with testdata/<name>.txt byte for byte.  The reports
// are deterministic, and a player change that claims identical results must
// leave them alone.  A golden is the stdout of the same command line, e.g.
// `go run ./cmd/pebblesim -kernel fft -n 32 -S 16`.
func TestReportsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		// The verify skill's P-RBW run with the w^max report.
		{"jacobi1d-parallel", []string{"-kernel", "jacobi", "-dim", "1", "-n", "48", "-steps", "6", "-wmax",
			"-parallel", "-nodes", "2", "-procs", "2", "-grain", "8"}},
		// Tight registers and caches: evictions through three levels on two nodes.
		{"fft-parallel", []string{"-kernel", "fft", "-n", "64", "-parallel", "-nodes", "2", "-procs", "2",
			"-regs", "4", "-cache", "16"}},
		{"jacobi2d-single", []string{"-kernel", "jacobi", "-dim", "2", "-n", "16", "-steps", "3",
			"-parallel", "-nodes", "1", "-procs", "1", "-regs", "10", "-cache", "4096"}},
		// A step's operands stay live until it has fetched them all; when
		// the last-use flip came first, this game lost vertex 125.
		{"cg2d-single", []string{"-kernel", "cg", "-dim", "2", "-n", "6", "-iters", "2",
			"-parallel", "-nodes", "1", "-procs", "1", "-regs", "12", "-cache", "64", "-grain", "16"}},
		{"matmul-hk-lru", []string{"-kernel", "matmul", "-n", "6", "-S", "24", "-variant", "hk", "-policy", "lru"}},
		{"fft-rbw", []string{"-kernel", "fft", "-n", "32", "-S", "16"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := pebblesim(t, tc.args...)
			if err != nil {
				t.Fatalf("pebblesim %v: %v (stderr %q)", tc.args, err, stderr)
			}
			if got != string(want) {
				t.Fatalf("pebblesim %v printed\n%s\nwant\n%s", tc.args, got, want)
			}
		})
	}
}

// TestSequentialGameHonorsTimeout plays the sequential game under a deadline
// that has already passed: pebblesim must stop the play, report the
// cancellation and exit 1 instead of playing the whole game.
func TestSequentialGameHonorsTimeout(t *testing.T) {
	_, stderr, err := pebblesim(t, "-kernel", "jacobi", "-dim", "2", "-n", "64", "-steps", "8", "-timeout", "1ns")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("pebblesim exited with %v, want status 1 (stderr %q)", err, stderr)
	}
	if !strings.Contains(stderr, "cancelled") {
		t.Fatalf("stderr %q does not report the cancellation", stderr)
	}
}

// TestOutOfDomainSizesFailCleanly passes an FFT size that is not a power of
// two, P-RBW machines without processors and an unknown sequential game
// variant or eviction policy: pebblesim must report each on one
// "pebblesim: ..." line and exit 1, without a panic's stack trace and without
// a game report (the graph's summary line may precede the error).
func TestOutOfDomainSizesFailCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "fft", "-n", "6"},
		{"-kernel", "fft", "-n", "8", "-parallel", "-procs", "0"},
		{"-kernel", "fft", "-n", "8", "-parallel", "-nodes", "0"},
		{"-kernel", "fft", "-n", "8", "-variant", "bogus"},
		{"-kernel", "fft", "-n", "8", "-policy", "bogus"},
	} {
		stdout, stderr, err := pebblesim(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("pebblesim %v exited with %v, want status 1 (stderr %q)", args, err, stderr)
			continue
		}
		if !strings.HasPrefix(stderr, "pebblesim: ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("pebblesim %v: stderr %q, want one \"pebblesim: ...\" line", args, stderr)
		}
		if strings.Count(stdout, "\n") > 1 {
			t.Errorf("pebblesim %v printed a report: %q", args, stdout)
		}
	}
}

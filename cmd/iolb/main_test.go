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
// child process and observe its output and exit status.
const runMainEnv = "IOLB_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// iolb runs the CLI in a child process and returns its stdout, its stderr and
// the error of the run (an *exec.ExitError for a non-zero exit).
func iolb(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestReportsMatchGolden runs the all-candidates analysis of four small
// kernels and compares each report with testdata/<kernel>.txt byte for byte.
// The reports are deterministic, and an engine change that claims identical
// results must leave them alone.  A golden is the stdout of the same command
// line, e.g. `go run ./cmd/iolb -kernel fft -n 128 -S 16 -candidates -1`.
func TestReportsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fft", []string{"-kernel", "fft", "-n", "128", "-S", "16"}},
		{"composite", []string{"-kernel", "composite", "-n", "6", "-S", "16"}},
		{"cg", []string{"-kernel", "cg", "-dim", "2", "-n", "6", "-iters", "2", "-S", "32"}},
		{"jacobi", []string{"-kernel", "jacobi", "-dim", "2", "-n", "12", "-steps", "3", "-S", "16"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := iolb(t, append(tc.args, "-candidates", "-1")...)
			if err != nil {
				t.Fatalf("iolb %v: %v (stderr %q)", tc.args, err, stderr)
			}
			if got != string(want) {
				t.Fatalf("iolb %v printed\n%s\nwant\n%s", tc.args, got, want)
			}
		})
	}
}

// TestAnalysisHonorsTimeout runs the analysis under a deadline that has
// already passed: iolb must report the cancellation and exit 1 instead of
// printing a report.
func TestAnalysisHonorsTimeout(t *testing.T) {
	stdout, stderr, err := iolb(t, "-kernel", "fft", "-n", "128", "-S", "16", "-candidates", "-1", "-timeout", "1ns")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("iolb exited with %v, want status 1 (stderr %q)", err, stderr)
	}
	if !strings.Contains(stderr, "cancelled") {
		t.Fatalf("stderr %q does not report the cancellation", stderr)
	}
	if stdout != "" {
		t.Fatalf("a cancelled analysis printed %q", stdout)
	}
}

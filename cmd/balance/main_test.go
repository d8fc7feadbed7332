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
const runMainEnv = "BALANCE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// balance runs the CLI in a child process and returns its stdout, its stderr
// and the error of the run (an *exec.ExitError for a non-zero exit).
func balance(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestReportsMatchGolden compares the full analysis, with and without the
// memory-simulation sweeps, with testdata/<name>.txt byte for byte.  A golden
// is the stdout of the same command line, e.g. `go run ./cmd/balance -all`.
func TestReportsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all", []string{"-all"}},
		{"all-sim", []string{"-all", "-sim", "-S", "32,64", "-simn", "4", "-j", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := balance(t, tc.args...)
			if err != nil {
				t.Fatalf("balance %v: %v (stderr %q)", tc.args, err, stderr)
			}
			if got != string(want) {
				t.Fatalf("balance %v printed\n%s\nwant\n%s", tc.args, got, want)
			}
		})
	}
}

// TestOutOfDomainSizesFailCleanly passes sizes below 1: balance must reject
// each with one "balance: ..." line and exit 1, before printing any report
// and without a panic's stack trace.
func TestOutOfDomainSizesFailCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-composite", "-compn", "0"},
		{"-cg", "-sim", "-simn", "0"},
		{"-jacobi", "-sim", "-nodes", "0"},
		{"-jacobi", "-maxdim", "0"},
		{"-cg", "-n", "-3"},
		{"-gmres", "-m", "0"},
		{"-gmres", "-m", "10,-1"},
	} {
		stdout, stderr, err := balance(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("balance %v exited with %v, want status 1 (stderr %q)", args, err, stderr)
			continue
		}
		if !strings.HasPrefix(stderr, "balance: ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("balance %v: stderr %q, want one \"balance: ...\" line", args, stderr)
		}
		if stdout != "" {
			t.Errorf("balance %v printed %q", args, stdout)
		}
	}
}

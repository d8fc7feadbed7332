package main

import (
	"errors"
	"os"
	"os/exec"
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

// TestSequentialGameHonorsTimeout plays the sequential game under a deadline
// that has already passed: pebblesim must stop the play, report the
// cancellation and exit 1 instead of playing the whole game.
func TestSequentialGameHonorsTimeout(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-kernel", "jacobi", "-dim", "2", "-n", "64", "-steps", "8", "-timeout", "1ns")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("pebblesim exited with %v, want status 1 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cancelled") {
		t.Fatalf("stderr %q does not report the cancellation", stderr.String())
	}
}

// TestOutOfDomainSizesFailCleanly passes an FFT size that is not a power of
// two and P-RBW machines without processors: pebblesim must report each on
// one "pebblesim: ..." line and exit 1, without a panic's stack trace and
// without a game report (the graph's summary line may precede the error).
func TestOutOfDomainSizesFailCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "fft", "-n", "6"},
		{"-kernel", "fft", "-n", "8", "-parallel", "-procs", "0"},
		{"-kernel", "fft", "-n", "8", "-parallel", "-nodes", "0"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("pebblesim %v exited with %v, want status 1 (stderr %q)", args, err, stderr.String())
			continue
		}
		if s := stderr.String(); !strings.HasPrefix(s, "pebblesim: ") || strings.Count(s, "\n") != 1 || strings.Contains(s, "goroutine") {
			t.Errorf("pebblesim %v: stderr %q, want one \"pebblesim: ...\" line", args, s)
		}
		if strings.Count(stdout.String(), "\n") > 1 {
			t.Errorf("pebblesim %v printed a report: %q", args, stdout.String())
		}
	}
}

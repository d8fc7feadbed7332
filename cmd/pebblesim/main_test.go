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

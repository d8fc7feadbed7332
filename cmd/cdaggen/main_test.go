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
const runMainEnv = "CDAGGEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cdaggen runs the CLI in a child process and returns its stdout, its stderr
// and the error of the run (an *exec.ExitError for a non-zero exit).
func cdaggen(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestExportsMatchGolden exports FFT(8) in both formats, to stdout and to an
// -o file, and compares each with testdata/fft8.<format> byte for byte.  A
// golden is the stdout of the same command line, e.g.
// `go run ./cmd/cdaggen -kernel fft -n 8 -format json`.
func TestExportsMatchGolden(t *testing.T) {
	for _, format := range []string{"json", "dot"} {
		t.Run(format, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "fft8."+format))
			if err != nil {
				t.Fatal(err)
			}
			args := []string{"-kernel", "fft", "-n", "8", "-format", format}
			got, stderr, err := cdaggen(t, args...)
			if err != nil {
				t.Fatalf("cdaggen %v: %v (stderr %q)", args, err, stderr)
			}
			if got != string(want) {
				t.Fatalf("cdaggen %v printed\n%s\nwant\n%s", args, got, want)
			}
			out := filepath.Join(t.TempDir(), "fft8."+format)
			if _, stderr, err := cdaggen(t, append(args, "-o", out)...); err != nil {
				t.Fatalf("cdaggen %v -o: %v (stderr %q)", args, err, stderr)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != string(want) {
				t.Fatalf("cdaggen %v -o wrote %q (%v), want the golden", args, got, err)
			}
		})
	}
}

// TestBadArgumentsFailCleanly passes an out-of-domain size and an unknown
// format: cdaggen must report each with one "cdaggen: ..." line and exit 1,
// without a panic's stack trace and without leaving the -o file behind.
func TestBadArgumentsFailCleanly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.dot")
	for _, args := range [][]string{
		{"-kernel", "fft", "-n", "0"},
		{"-kernel", "fft", "-n", "0", "-o", out},
		{"-format", "bogus", "-o", out},
	} {
		stdout, stderr, err := cdaggen(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("cdaggen %v exited with %v, want status 1 (stderr %q)", args, err, stderr)
			continue
		}
		if !strings.HasPrefix(stderr, "cdaggen: ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("cdaggen %v: stderr %q, want one \"cdaggen: ...\" line", args, stderr)
		}
		if stdout != "" {
			t.Errorf("cdaggen %v printed %q", args, stdout)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("cdaggen %v left %s behind (stat: %v)", args, out, err)
		}
	}
}

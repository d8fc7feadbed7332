package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
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
const runMainEnv = "CDAGX_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cdagx runs the CLI in a child process and returns its stdout, its stderr
// and the error of the run (an *exec.ExitError for a non-zero exit).
func cdagx(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

const paperSpec = "../../specs/paper.yaml"

// TestRunWritesPaperArtifacts runs the paper spec without a journal and
// checks the sha256 of the three artifacts it writes against the digests
// the exp/emit tests pin.
func TestRunWritesPaperArtifacts(t *testing.T) {
	out := t.TempDir()
	if _, stderr, err := cdagx(t, "run", "-no-cache", "-q", "-out", out, paperSpec); err != nil {
		t.Fatalf("cdagx run: %v (stderr %q)", err, stderr)
	}
	sums, err := os.ReadFile("../../internal/exp/emit/testdata/paper.sha256")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc := bufio.NewScanner(strings.NewReader(string(sums))); sc.Scan(); n++ {
		want, name, _ := strings.Cut(sc.Text(), "  ")
		body, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s has sha256 %s, want %s", name, got, want)
		}
	}
	if n != 3 {
		t.Fatalf("%d recorded digests, want 3", n)
	}
}

// TestPlanCountsJobs prints the paper spec's job DAG, whose last line counts
// its jobs, cells and workloads.
func TestPlanCountsJobs(t *testing.T) {
	stdout, stderr, err := cdagx(t, "plan", paperSpec)
	if err != nil {
		t.Fatalf("cdagx plan: %v (stderr %q)", err, stderr)
	}
	if want := "48 jobs (23 cells) over 7 workloads\n"; !strings.HasSuffix(stdout, want) {
		t.Fatalf("cdagx plan ends %q, want %q", stdout[strings.LastIndex(strings.TrimSuffix(stdout, "\n"), "\n")+1:], want)
	}
}

// TestUnknownStencilFailsCleanly runs a spec whose jacobi workload names an
// unknown stencil: the compile step must reject it with one "cdagx: ..."
// line and exit 1, before any artifact is written.
func TestUnknownStencilFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus.yaml")
	text := `name: bogus
workloads:
  - name: w
    kind: jacobi
    dim: 2
    n: 4
    steps: 2
    stencil: bogus
experiments:
  - name: e
    kind: graphstat
    workload: w
`
	if err := os.WriteFile(path, []byte(text), 0o666); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	_, stderr, err := cdagx(t, "run", "-no-cache", "-q", "-out", out, path)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("cdagx run exited with %v, want status 1 (stderr %q)", err, stderr)
	}
	if !strings.HasPrefix(stderr, "cdagx: ") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("stderr %q, want one \"cdagx: ...\" line", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a failed run created %s (%v)", out, err)
	}
}

// TestOutOfDomainWorkloadFailsPlan plans a spec whose jacobi workload omits
// dim: its grid has no axes, so the catalog cannot build it, and the compile
// step must reject it with one "cdagx: ..." line naming the domain.
func TestOutOfDomainWorkloadFailsPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodim.yaml")
	text := `name: nodim
workloads:
  - name: w
    kind: jacobi
    n: 4
    steps: 2
experiments:
  - name: e
    kind: graphstat
    workload: w
`
	if err := os.WriteFile(path, []byte(text), 0o666); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := cdagx(t, "plan", path)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("cdagx plan exited with %v, want a non-zero status (stdout %q)", err, stdout)
	}
	if !strings.HasPrefix(stderr, "cdagx: ") || !strings.Contains(stderr, "parameters out of domain") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("stderr %q, want one \"cdagx: ...\" line saying the parameters are out of domain", stderr)
	}
}

// TestUnknownCommandExits2 passes a subcommand cdagx does not have.
func TestUnknownCommandExits2(t *testing.T) {
	_, stderr, err := cdagx(t, "frobnicate")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("cdagx frobnicate exited with %v, want status 2 (stderr %q)", err, stderr)
	}
}

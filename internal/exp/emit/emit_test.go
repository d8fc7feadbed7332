package emit_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"cdagio/internal/exp/plan"
	"cdagio/internal/exp/run"
	"cdagio/internal/exp/spec"
)

// TestPaperArtifactsGolden compiles specs/paper.yaml, executes every cell
// without a cache at one and at four workers, and checks the sha256 of the
// three rendered artifacts against testdata/paper.sha256.  The engine cells
// run through serve.RunEngine, so the hashes also pin the analyze, wmax,
// play, prbw and sweep response bodies the artifacts are rendered from.
func TestPaperArtifactsGolden(t *testing.T) {
	want := readSums(t, "testdata/paper.sha256")
	s, err := spec.Load("../../../specs/paper.yaml")
	if err != nil {
		t.Fatalf("spec.Load: %v", err)
	}
	ir, err := spec.Compile(s, spec.Options{})
	if err != nil {
		t.Fatalf("spec.Compile: %v", err)
	}
	for _, workers := range []int{1, 4} {
		res, err := run.Execute(context.Background(), plan.New(ir), run.Options{Workers: workers})
		if err != nil {
			t.Fatalf("run.Execute (workers=%d): %v", workers, err)
		}
		got := map[string][]byte{
			"EXPERIMENTS.gen.md": res.Outputs.Markdown,
			"results.csv":        res.Outputs.CSV,
			"results.json":       res.Outputs.JSON,
		}
		if len(got) != len(want) {
			t.Fatalf("%d artifacts, %d recorded hashes", len(got), len(want))
		}
		for name, body := range got {
			sum := sha256.Sum256(body)
			if h := hex.EncodeToString(sum[:]); h != want[name] {
				t.Errorf("workers=%d: %s has sha256 %s, want %s", workers, name, h, want[name])
			}
		}
	}
}

// readSums parses a sha256sum-style file into a name → hex digest map.
func readSums(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	return sums
}

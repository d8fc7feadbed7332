package spec

import (
	"strings"
	"testing"
)

const yamlSpec = `
# a comment
name: demo
machines: [bgq, xt5]
workloads:
  - name: heat
    kind: heat
    n: 16
    steps: 4
experiments:
  - name: t1
    kind: table1
  - name: heat-play
    kind: play
    workload: heat
    s: [4, 8]
    policies: [belady, lru]
`

func compileText(t *testing.T, text string) *IR {
	t.Helper()
	s, err := Parse([]byte(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ir, err := Compile(s, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return ir
}

// Reformatting a spec (comments, quoting, flow vs block sequences) must not
// move any cell key.
func TestKeysSurviveReformatting(t *testing.T) {
	reformatted := `
name: demo
machines:
  - "bgq"
  - 'xt5'
workloads:
  - name: heat
    kind: "heat"
    n: 16
    steps: 4
experiments:
  - name: t1
    kind: table1
  - name: heat-play
    kind: play
    workload: heat
    s:
      - 4
      - 8
    policies:
      - BELADY
      - LRU
`
	a := compileText(t, yamlSpec)
	b := compileText(t, reformatted)
	if len(a.Cells) != 5 { // 1 table1 + 2 S × 2 policies
		t.Fatalf("got %d cells, want 5", len(a.Cells))
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].Key != b.Cells[i].Key {
			t.Errorf("cell %d: key moved under reformatting", i)
		}
	}
}

func TestCompileBoundaryErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"unknown gen kind", `
name: x
workloads:
  - name: w
    kind: quicksort
    n: 4
experiments:
  - name: e
    kind: graphstat
    workload: w
`, "unknown generator kind"},
		{"unknown machine", `
name: x
machines: [cray-3]
experiments:
  - name: e
    kind: table1
`, "spec machines"},
		{"unknown experiment kind", `
name: x
experiments:
  - name: e
    kind: frobnicate
`, "unknown experiment kind"},
		{"unknown workload reference", `
name: x
experiments:
  - name: e
    kind: wmax
    workload: nope
`, "unknown workload"},
		{"duplicate workload", `
name: x
workloads:
  - name: w
    kind: chain
    n: 4
  - name: w
    kind: chain
    n: 5
experiments:
  - name: e
    kind: graphstat
    workload: w
`, "duplicate name"},
		{"out of domain s", `
name: x
workloads:
  - name: w
    kind: chain
    n: 4
experiments:
  - name: e
    kind: play
    workload: w
    s: [0]
`, "out of domain"},
		{"unknown stencil", `
name: x
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
`, "out of domain"},
		{"oversized workload", `
name: x
workloads:
  - name: w
    kind: jacobi
    dim: 3
    n: 2000
    steps: 2000
experiments:
  - name: e
    kind: graphstat
    workload: w
`, ""},
		{"blockgrid on non-jacobi", `
name: x
workloads:
  - name: w
    kind: matmul
    n: 4
experiments:
  - name: e
    kind: prbw
    workload: w
    assignment: blockgrid
    nodes: [2]
    procs_per_node: 2
    reg_words: 8
    cache_words: 96
    mem_words: 1024
`, "needs a jacobi workload"},
		{"unknown spec field", `
name: x
frobs: 3
experiments:
  - name: e
    kind: table1
`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.text))
			if err == nil {
				_, err = Compile(s, Options{})
			}
			if err == nil {
				t.Fatalf("compiled without error, want one containing %q", tc.want)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestYAMLParserRejects(t *testing.T) {
	for _, text := range []string{
		"name: a\nname: b\nexperiments:\n  - name: e\n    kind: table1\n", // duplicate key
		"\tname: x\n",                           // tab indentation
		"name: x\nexperiments: {inline: map}\n", // flow mapping
	} {
		if _, err := Parse([]byte(text)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

// Engine-expressible cells carry canonical daemon request bodies.
func TestEngineCellBodies(t *testing.T) {
	ir := compileText(t, `
name: x
workloads:
  - name: w
    kind: heat
    n: 16
    steps: 4
experiments:
  - name: sim
    kind: sweep
    workload: w
    s: [8]
  - name: an
    kind: analyze
    workload: w
    s: [8]
`)
	if len(ir.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(ir.Cells))
	}
	if ir.Cells[0].Engine != "simulate" {
		t.Errorf("sweep cell engine = %q, want simulate (topo/1-node/no-owner lowers to one request)", ir.Cells[0].Engine)
	}
	if got, want := string(ir.Cells[0].Body), `{"nodes":1,"fast_words":8,"policy":"belady"}`; got != want {
		t.Errorf("simulate body = %s, want %s", got, want)
	}
	if ir.Cells[1].Engine != "analyze" {
		t.Errorf("analyze cell engine = %q", ir.Cells[1].Engine)
	}
	if got, want := string(ir.Cells[1].Body), `{"s":8}`; got != want {
		t.Errorf("analyze body = %s, want %s", got, want)
	}
}

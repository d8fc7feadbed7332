package spec

import (
	"reflect"
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
		// 41 × 1 × 41 × 41 = 68,921 cells from a spec of a few hundred bytes.
		{"oversized sweep", `
name: x
workloads:
  - name: w
    kind: chain
    n: 4
experiments:
  - name: e
    kind: sweep
    workload: w
    s: [` + strings.Repeat("1, ", 40) + `1]
    schedules: [` + strings.Repeat("topo, ", 40) + `topo]
    nodes: [` + strings.Repeat("1, ", 40) + `1]
`, "more than 4096 cells"},
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

// FuzzCompile feeds arbitrary bytes, up to 16 KiB, to Parse and then
// Compile.  Neither may panic, and compiling one parsed spec twice must give
// the same error, or the same cells with the same keys in the same order.
// The seeds are small specs of every experiment kind: a seed the size of
// specs/paper.yaml leaves the fuzzer minimizing instead of mutating.
func FuzzCompile(f *testing.F) {
	f.Add([]byte(yamlSpec))
	f.Add([]byte(`
name: m
machines: [bgq]
workloads:
  - name: j
    kind: jacobi
    dim: 2
    n: 6
    steps: 2
    stencil: box
experiments:
  - name: b
    kind: balance
    family: cg
    machine: bgq
    dim: 3
    n: 8
    iterations: 2
  - name: g
    kind: balance
    family: gmres
    machine: bgq
    dim: 3
    n: 8
    m_sweep: [2, 4]
  - name: jb
    kind: balance
    family: jacobi
    machine: bgq
    max_dim: 4
  - name: s
    kind: solver
    family: heat
    n: 8
    steps: 2
  - name: w
    kind: wmax
    workload: j
    candidates: 4
  - name: o
    kind: optimal
    workload: j
    s: [4]
    variant: hk
    max_states: 100
  - name: p
    kind: prbw
    workload: j
    assignment: blockgrid
    nodes: [1, 2]
    procs_per_node: 2
    reg_words: 8
    cache_words: 96
    mem_words: 1024
  - name: sw
    kind: sweep
    workload: j
    s: [8, 16]
    policies: [lru]
    schedules: [topo, skewed]
    nodes: [1, 2]
    owner: blockgrid
    bound: jacobi
`))
	f.Add([]byte(`
name: r
workloads:
  - name: f
    kind: fft
    n: 8
experiments:
  - name: st
    kind: graphstat
    workload: f
    critical_path: true
  - name: pr
    kind: prbw
    workload: f
    assignment: roundrobin
    p: 2
    s1: 8
    sl: 64
    grain: 2
`))
	f.Add([]byte("name: x\nexperiments:\n  - name: e\n    kind: play\n    workload: w\n    s: [0]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			t.Skip()
		}
		s, err := Parse(data)
		if err != nil {
			return
		}
		a, errA := Compile(s, Options{})
		b, errB := Compile(s, Options{})
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("compiled twice: errors %v and %v", errA, errB)
		}
		if errA == nil && !reflect.DeepEqual(a.Cells, b.Cells) {
			t.Fatalf("compiled twice: %d and %d cells, or their keys or order differ", len(a.Cells), len(b.Cells))
		}
	})
}

package machine

import (
	"fmt"
	"sort"
	"strings"
)

// Words-per-byte conversion for the 8-byte double-precision words used
// throughout the paper's analysis.
const bytesPerWord = 8

// MegaWords converts a capacity in MBytes to words.
func MegaWords(mbytes float64) int64 { return int64(mbytes * 1e6 / bytesPerWord) }

// GigaWords converts a capacity in GBytes to words.
func GigaWords(gbytes float64) int64 { return int64(gbytes * 1e9 / bytesPerWord) }

// catalog is the machine data table: every machine the library knows by name,
// in the order Table 1 of the paper lists them.  Experiment specs and CLIs
// reference these rows through Lookup, so the balance parameters live in
// exactly one place instead of per-benchmark constants.
var catalog = []Machine{
	{
		// IBM Blue Gene/Q, Table 1 row 1: 2048 nodes, 16 GB of memory and
		// 32 MB of L2 cache per node.  Per node, BG/Q has 16 compute cores at
		// 12.8 GFLOP/s each (204.8 GFLOP/s per node); the balance overrides
		// carry the exact words/FLOP values the paper tabulates.
		Name:         "IBM BG/Q",
		Nodes:        2048,
		CoresPerNode: 16,
		FlopsPerCore: 12.8e9,
		Levels: []Level{
			{Name: "L1", CountPerNode: 16, CapacityWords: MegaWords(0.016)},
			{Name: "L2", CountPerNode: 1, CapacityWords: MegaWords(32)},
		},
		MainMemoryWords:           GigaWords(16),
		VerticalBalanceOverride:   0.052,
		HorizontalBalanceOverride: 0.049,
	},
	{
		// Cray XT5, Table 1 row 2: 9408 nodes, 16 GB of memory and 6 MB of
		// L2/L3 cache per node, 12 cores at 10.4 GFLOP/s each.
		Name:         "Cray XT5",
		Nodes:        9408,
		CoresPerNode: 12,
		FlopsPerCore: 10.4e9,
		Levels: []Level{
			{Name: "L1", CountPerNode: 12, CapacityWords: MegaWords(0.064)},
			{Name: "L2/L3", CountPerNode: 1, CapacityWords: MegaWords(6)},
		},
		MainMemoryWords:           GigaWords(16),
		VerticalBalanceOverride:   0.0256,
		HorizontalBalanceOverride: 0.058,
	},
}

// aliases maps lower-cased shorthand names onto canonical catalog names, so
// specs can say "bgq" instead of "IBM BG/Q".
var aliases = map[string]string{
	"bgq":        "IBM BG/Q",
	"bg/q":       "IBM BG/Q",
	"bluegene/q": "IBM BG/Q",
	"xt5":        "Cray XT5",
}

// clone returns a deep copy of m so catalog rows handed out by accessors
// cannot be mutated through the shared Levels backing array.
func clone(m Machine) Machine {
	m.Levels = append([]Level(nil), m.Levels...)
	return m
}

// Catalog returns a copy of the full machine data table in Table 1 order.
func Catalog() []Machine {
	out := make([]Machine, len(catalog))
	for i, m := range catalog {
		out[i] = clone(m)
	}
	return out
}

// Names returns every name Lookup accepts — canonical catalog names in table
// order followed by the sorted aliases.
func Names() []string {
	out := make([]string, 0, len(catalog)+len(aliases))
	for _, m := range catalog {
		out = append(out, m.Name)
	}
	short := make([]string, 0, len(aliases))
	for a := range aliases {
		short = append(short, a)
	}
	sort.Strings(short)
	return append(out, short...)
}

// Lookup returns a catalog machine by name: exact match first, then
// case-insensitive, then the alias table ("bgq", "xt5", ...).
func Lookup(name string) (Machine, error) {
	for _, m := range catalog {
		if m.Name == name {
			return clone(m), nil
		}
	}
	folded := strings.ToLower(strings.TrimSpace(name))
	for _, m := range catalog {
		if strings.ToLower(m.Name) == folded {
			return clone(m), nil
		}
	}
	if canonical, ok := aliases[folded]; ok {
		return Lookup(canonical)
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q (known: %s)",
		name, strings.Join(Names(), ", "))
}

// IBMBGQ returns the IBM Blue Gene/Q configuration of Table 1.
func IBMBGQ() Machine { m, _ := Lookup("IBM BG/Q"); return m }

// CrayXT5 returns the Cray XT5 configuration of Table 1.
func CrayXT5() Machine { m, _ := Lookup("Cray XT5"); return m }

// Table1 returns the machines of Table 1 in the order the paper lists them.
func Table1() []Machine { return Catalog() }

// Generic returns a parameterized machine useful for what-if analyses and
// tests: nodes × coresPerNode cores at flopsPerCore FLOP/s, one shared cache
// of cacheWords words per node backed by main memory, with the given
// vertical (memory) and horizontal (network) bandwidths in words/s.
func Generic(name string, nodes, coresPerNode int, flopsPerCore float64,
	cacheWords, memWords int64, memBW, netBW float64) Machine {
	return Machine{
		Name:         name,
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		FlopsPerCore: flopsPerCore,
		Levels: []Level{
			{Name: "cache", CountPerNode: 1, CapacityWords: cacheWords},
		},
		MainMemoryWords:             memWords,
		MainMemoryBandwidth:         memBW,
		NetworkBandwidthWordsPerSec: netBW,
	}
}

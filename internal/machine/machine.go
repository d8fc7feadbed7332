// Package machine models the parallel computer systems whose data-movement
// requirements the library analyzes: multi-node machines connected by an
// interconnection network, each node holding multiple cores that share a
// hierarchy of caches and the node's physical main memory (Figure 1 of
// Elango et al.).
//
// A Machine carries enough information to evaluate the architectural balance
// parameters that Section 5 of the paper compares bounds against:
//
//   - the vertical balance at a level of the memory hierarchy — the ratio of
//     the bandwidth between that level and its children to the aggregate peak
//     floating-point throughput of the cores it serves (words/FLOP), and
//   - the horizontal balance — the per-node interconnect bandwidth divided by
//     the node's peak floating-point throughput (words/FLOP).
//
// The catalog includes the two machines of Table 1 (IBM BG/Q and Cray XT5)
// with the balance values reported in the paper.
package machine

import (
	"fmt"
	"strings"
)

// Level describes one level of the per-node storage hierarchy, counted from
// fast/small to slow/large: level 1 is the innermost storage (registers or L1
// in the paper's model), and the highest level is the node's main memory.
type Level struct {
	// Name is a human-readable label ("L1", "L2", "DRAM", ...).
	Name string
	// CountPerNode is the number of storage units of this level per node
	// (N_l in the paper, expressed per node).
	CountPerNode int
	// CapacityWords is the capacity S_l of one storage unit, in words.
	CapacityWords int64
}

// Machine describes a distributed-memory parallel machine.
type Machine struct {
	// Name identifies the machine in reports.
	Name string
	// Nodes is the number of nodes N_nodes.
	Nodes int
	// CoresPerNode is the number of cores sharing a node's hierarchy.
	CoresPerNode int
	// FlopsPerCore is the peak floating-point throughput of one core, in
	// FLOP/s.
	FlopsPerCore float64
	// Levels is the per-node storage hierarchy ordered from level 1
	// (innermost) to level L−1; the final, implicit level L is the node main
	// memory described by MainMemoryWords.
	Levels []Level
	// MainMemoryWords is the capacity of one node's main memory, in words.
	MainMemoryWords int64
	// MainMemoryBandwidth is the bandwidth between a node's main memory and
	// the outermost cache level, in words per second.
	MainMemoryBandwidth float64
	// NetworkBandwidthWordsPerSec is the interconnect bandwidth available to
	// one node, in words per second.
	NetworkBandwidthWordsPerSec float64

	// VerticalBalanceOverride and HorizontalBalanceOverride, when positive,
	// take precedence over the values derived from bandwidths.  They allow
	// encoding machines for which the paper reports balance parameters
	// directly (Table 1) without publishing the underlying bandwidths.
	VerticalBalanceOverride   float64
	HorizontalBalanceOverride float64
}

// TotalCores returns the total number of cores P = Nodes × CoresPerNode.
func (m Machine) TotalCores() int { return m.Nodes * m.CoresPerNode }

// NodePeakFlops returns the peak floating-point throughput of one node.
func (m Machine) NodePeakFlops() float64 {
	return float64(m.CoresPerNode) * m.FlopsPerCore
}

// VerticalBalance returns the machine-balance parameter for the data movement
// between the node main memory and the outermost cache (words/FLOP):
// B_vert / (N_cores × F).  This is the quantity on the right-hand side of
// Equation (9) in the paper.
func (m Machine) VerticalBalance() (float64, error) {
	if m.VerticalBalanceOverride > 0 {
		return m.VerticalBalanceOverride, nil
	}
	if m.MainMemoryBandwidth <= 0 {
		return 0, fmt.Errorf("machine %q: main-memory bandwidth not specified", m.Name)
	}
	return m.MainMemoryBandwidth / m.NodePeakFlops(), nil
}

// HorizontalBalance returns the machine-balance parameter for inter-node
// communication (words/FLOP): B_horiz / (N_cores × F), the right-hand side of
// Equation (10).
func (m Machine) HorizontalBalance() (float64, error) {
	if m.HorizontalBalanceOverride > 0 {
		return m.HorizontalBalanceOverride, nil
	}
	if m.NetworkBandwidthWordsPerSec <= 0 {
		return 0, fmt.Errorf("machine %q: network bandwidth not specified", m.Name)
	}
	return m.NetworkBandwidthWordsPerSec / m.NodePeakFlops(), nil
}

// Validate checks that the machine description is internally consistent.
func (m Machine) Validate() error {
	var problems []string
	if m.Nodes <= 0 {
		problems = append(problems, "Nodes must be positive")
	}
	if m.CoresPerNode <= 0 {
		problems = append(problems, "CoresPerNode must be positive")
	}
	if m.FlopsPerCore <= 0 {
		problems = append(problems, "FlopsPerCore must be positive")
	}
	if m.MainMemoryWords <= 0 {
		problems = append(problems, "MainMemoryWords must be positive")
	}
	for i, lev := range m.Levels {
		if lev.CapacityWords <= 0 {
			problems = append(problems, fmt.Sprintf("level %d (%s) capacity must be positive", i, lev.Name))
		}
		if lev.CountPerNode <= 0 {
			problems = append(problems, fmt.Sprintf("level %d (%s) count must be positive", i, lev.Name))
		}
		if i > 0 && lev.CapacityWords < m.Levels[i-1].CapacityWords {
			problems = append(problems, fmt.Sprintf("level %d (%s) smaller than level %d", i, lev.Name, i-1))
		}
		if i > 0 && lev.CountPerNode > m.Levels[i-1].CountPerNode {
			problems = append(problems, fmt.Sprintf("level %d (%s) has more units than level %d", i, lev.Name, i-1))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("machine %q invalid: %s", m.Name, strings.Join(problems, "; "))
	}
	return nil
}

// CacheCapacityWords returns the capacity of one unit of the outermost cache
// level (the "L2/L3 cache" column of Table 1), or the main memory if there
// are no cache levels.
func (m Machine) CacheCapacityWords() int64 {
	if len(m.Levels) == 0 {
		return m.MainMemoryWords
	}
	return m.Levels[len(m.Levels)-1].CapacityWords
}

// String summarizes the machine.
func (m Machine) String() string {
	vb, _ := m.VerticalBalance()
	hb, _ := m.HorizontalBalance()
	return fmt.Sprintf("%s: %d nodes × %d cores, %.3g GFLOP/s/node, vertical balance %.4g w/F, horizontal balance %.4g w/F",
		m.Name, m.Nodes, m.CoresPerNode, m.NodePeakFlops()/1e9, vb, hb)
}

package machine

import (
	"math"
	"strings"
	"testing"
)

func TestTable1Values(t *testing.T) {
	bgq := IBMBGQ()
	xt5 := CrayXT5()

	vb, err := bgq.VerticalBalance()
	if err != nil || math.Abs(vb-0.052) > 1e-12 {
		t.Errorf("BG/Q vertical balance = %v (%v), want 0.052", vb, err)
	}
	hb, err := bgq.HorizontalBalance()
	if err != nil || math.Abs(hb-0.049) > 1e-12 {
		t.Errorf("BG/Q horizontal balance = %v (%v), want 0.049", hb, err)
	}
	vb5, err := xt5.VerticalBalance()
	if err != nil || math.Abs(vb5-0.0256) > 1e-12 {
		t.Errorf("XT5 vertical balance = %v (%v), want 0.0256", vb5, err)
	}
	hb5, err := xt5.HorizontalBalance()
	if err != nil || math.Abs(hb5-0.058) > 1e-12 {
		t.Errorf("XT5 horizontal balance = %v (%v), want 0.058", hb5, err)
	}

	if bgq.Nodes != 2048 || xt5.Nodes != 9408 {
		t.Errorf("node counts wrong: %d, %d", bgq.Nodes, xt5.Nodes)
	}
	// Table 1 reports 16 GB memory and 32 MB / 6 MB caches.
	if bgq.MainMemoryWords != GigaWords(16) || xt5.MainMemoryWords != GigaWords(16) {
		t.Errorf("memory sizes wrong")
	}
	if bgq.CacheCapacityWords() != MegaWords(32) {
		t.Errorf("BG/Q cache = %d words, want %d", bgq.CacheCapacityWords(), MegaWords(32))
	}
	if xt5.CacheCapacityWords() != MegaWords(6) {
		t.Errorf("XT5 cache = %d words, want %d", xt5.CacheCapacityWords(), MegaWords(6))
	}
	// The BG/Q L2 is 4 MWords — the value plugged into the Jacobi analysis
	// (Section 5.4.3 uses S2 = 4 MWords).
	if bgq.CacheCapacityWords() != 4_000_000 {
		t.Errorf("BG/Q cache = %d words, want 4e6", bgq.CacheCapacityWords())
	}

	if len(Table1()) != 2 {
		t.Errorf("Table1 should list 2 machines")
	}
	for _, m := range Table1() {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", m.Name, err)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if MegaWords(8) != 1_000_000 {
		t.Errorf("MegaWords(8) = %d", MegaWords(8))
	}
	if GigaWords(8) != 1_000_000_000 {
		t.Errorf("GigaWords(8) = %d", GigaWords(8))
	}
}

func TestDerivedQuantities(t *testing.T) {
	m := Generic("toy", 4, 8, 2e9, 1<<20, 1<<30, 8e9, 1e9)
	if m.TotalCores() != 32 {
		t.Errorf("TotalCores = %d", m.TotalCores())
	}
	if m.NodePeakFlops() != 16e9 {
		t.Errorf("NodePeakFlops = %v", m.NodePeakFlops())
	}
	vb, err := m.VerticalBalance()
	if err != nil || math.Abs(vb-0.5) > 1e-12 {
		t.Errorf("vertical balance = %v (%v), want 0.5", vb, err)
	}
	hb, err := m.HorizontalBalance()
	if err != nil || math.Abs(hb-1.0/16.0) > 1e-12 {
		t.Errorf("horizontal balance = %v (%v)", hb, err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !strings.Contains(m.String(), "toy") {
		t.Errorf("String = %q", m.String())
	}
}

func TestBalanceErrors(t *testing.T) {
	m := Machine{Name: "incomplete", Nodes: 1, CoresPerNode: 1, FlopsPerCore: 1e9, MainMemoryWords: 1}
	if _, err := m.VerticalBalance(); err == nil {
		t.Errorf("expected vertical balance error without bandwidth")
	}
	if _, err := m.HorizontalBalance(); err == nil {
		t.Errorf("expected horizontal balance error without bandwidth")
	}
}

func TestValidateFailures(t *testing.T) {
	bad := Machine{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for empty machine")
	}
	// Shrinking capacities up the hierarchy are invalid.
	bad2 := Generic("bad2", 1, 1, 1e9, 100, 1<<20, 1e9, 1e9)
	bad2.Levels = append(bad2.Levels, Level{Name: "L2", CountPerNode: 1, CapacityWords: 10})
	if err := bad2.Validate(); err == nil {
		t.Errorf("expected error for shrinking hierarchy")
	}
	// More units at an outer level than an inner one are invalid.
	bad3 := Generic("bad3", 1, 4, 1e9, 100, 1<<20, 1e9, 1e9)
	bad3.Levels = append(bad3.Levels, Level{Name: "L2", CountPerNode: 2, CapacityWords: 1000})
	if err := bad3.Validate(); err == nil {
		t.Errorf("expected error for increasing unit count")
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("IBM BG/Q"); err != nil {
		t.Errorf("Lookup BG/Q: %v", err)
	}
	if _, err := Lookup("Cray XT5"); err != nil {
		t.Errorf("Lookup XT5: %v", err)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Errorf("expected error for unknown machine")
	}
}

func TestCacheCapacityNoLevels(t *testing.T) {
	m := Machine{Name: "flat", Nodes: 1, CoresPerNode: 1, FlopsPerCore: 1, MainMemoryWords: 42}
	if m.CacheCapacityWords() != 42 {
		t.Errorf("CacheCapacityWords = %d, want main memory 42", m.CacheCapacityWords())
	}
}

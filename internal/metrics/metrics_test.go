package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestStatsDerived(t *testing.T) {
	s := &Stats{
		Cycles:       1000,
		Instructions: 2500,
		Replies:      400,
		L1Accesses:   100, L1Misses: 25,
		LLCAccesses: 50, LLCHits: 30,
		LocalAccesses: 60, RemoteAccesses: 40,
		MemLatencySum: 5000, MemLatencyCount: 10,
	}
	if got := s.IPC(); got != 2.5 {
		t.Fatalf("IPC=%v", got)
	}
	if got := s.RepliesPerCycle(); got != 0.4 {
		t.Fatalf("replies/cyc=%v", got)
	}
	if got := s.L1MissRate(); got != 0.25 {
		t.Fatalf("l1miss=%v", got)
	}
	if got := s.LLCHitRate(); got != 0.6 {
		t.Fatalf("llchit=%v", got)
	}
	if got := s.LocalFraction(); got != 0.6 {
		t.Fatalf("local=%v", got)
	}
	if got := s.AvgMemLatency(); got != 500 {
		t.Fatalf("lat=%v", got)
	}
}

func TestStatsZeroSafe(t *testing.T) {
	s := &Stats{}
	for _, v := range []float64{s.IPC(), s.RepliesPerCycle(), s.L1MissRate(),
		s.LLCHitRate(), s.LocalFraction(), s.AvgMemLatency()} {
		if v != 0 {
			t.Fatalf("zero stats produced %v", v)
		}
	}
}

func TestNoCPowerW(t *testing.T) {
	s := &Stats{Cycles: 1_400_000_000, NoCEnergyNJ: 1e9} // 1 J
	// 1 J over (1.4e9 cycles / 1.4 GHz = 1 s) = 1 W.
	if w := s.NoCPowerW(1.4); w < 0.99 || w > 1.01 {
		t.Fatalf("power %v", w)
	}
	s.Cycles = 0
	if s.NoCPowerW(1.4) != 0 {
		t.Fatal("zero cycles should give zero power")
	}
}

func TestSharingHistogramBuckets(t *testing.T) {
	h := NewSharingHistogram()
	// Page 0: 1 SM. Page 1: 5 SMs. Page 2: 20 SMs. Page 3: 40 SMs.
	h.Touch(0, 0)
	h.Touch(0, 0) // duplicate touch: still one sharer
	for sm := 0; sm < 5; sm++ {
		h.Touch(1, sm)
	}
	for sm := 0; sm < 20; sm++ {
		h.Touch(2, sm)
	}
	for sm := 0; sm < 40; sm++ {
		h.Touch(3, sm)
	}
	one, two, eleven, over := h.Buckets()
	if one != 0.25 || two != 0.25 || eleven != 0.25 || over != 0.25 {
		t.Fatalf("buckets %v %v %v %v", one, two, eleven, over)
	}
	if h.SharedFraction() != 0.75 {
		t.Fatalf("shared %v", h.SharedFraction())
	}
	if h.Pages() != 4 {
		t.Fatalf("pages %d", h.Pages())
	}
}

// TestSharingHistogramWidens: an SM beyond the widest seen so far widens
// every page's bitset without losing a sharer.
func TestSharingHistogramWidens(t *testing.T) {
	h := NewSharingHistogram()
	h.Touch(7, 3)
	h.Touch(9, 63)
	h.Touch(9, 64)  // second word
	h.Touch(5, 200) // fourth word: pages 7 and 9 move
	h.Touch(7, 200)
	for sm := 100; sm < 130; sm++ {
		h.Touch(11, sm)
	}
	one, two, eleven, over := h.Buckets()
	if h.Pages() != 4 || one != 0.25 || two != 0.5 || eleven != 0 || over != 0.25 {
		t.Fatalf("pages %d, buckets %v %v %v %v", h.Pages(), one, two, eleven, over)
	}
}

func TestSharingHistogramEmpty(t *testing.T) {
	h := NewSharingHistogram()
	if h.SharedFraction() != 0 || h.Pages() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHarmonicMeanSpeedup(t *testing.T) {
	// HM of {2, 2} is 2.
	if got := HarmonicMeanSpeedup([]float64{2, 2}); got != 2 {
		t.Fatalf("HM=%v", got)
	}
	// HM of {1, 2} is 4/3.
	if got := HarmonicMeanSpeedup([]float64{1, 2}); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("HM=%v", got)
	}
	// HM <= arithmetic mean always.
	vals := []float64{0.5, 1.3, 2.7, 0.9}
	hm := HarmonicMeanSpeedup(vals)
	var am float64
	for _, v := range vals {
		am += v
	}
	am /= float64(len(vals))
	if hm > am {
		t.Fatalf("HM %v > AM %v", hm, am)
	}
	if HarmonicMeanSpeedup(nil) != 0 {
		t.Fatal("empty HM not 0")
	}
	if HarmonicMeanSpeedup([]float64{0}) != 0 {
		t.Fatal("non-positive speedup should yield 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"A", "LongHeader"}}
	tab.AddRow("x", "1")
	tab.AddRow("longcell", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "LongHeader") {
		t.Fatal("header missing")
	}
	// Columns aligned: all lines equal length.
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
}

func TestTotalEnergy(t *testing.T) {
	s := &Stats{NoCEnergyNJ: 1, DRAMEnergyNJ: 2, CoreEnergyNJ: 3, LLCEnergyNJ: 4, StaticEnergyNJ: 5}
	if s.TotalEnergyNJ() != 15 {
		t.Fatalf("total %v", s.TotalEnergyNJ())
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "demo", Width: 10}
	c.Add("aa", 10)
	c.Add("b", -5)
	out := c.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "##########") {
		t.Fatalf("chart:\n%s", out)
	}
	if !strings.Contains(out, "-|#####") {
		t.Fatalf("negative bar missing:\n%s", out)
	}
	empty := &BarChart{}
	if !strings.Contains(empty.String(), "no data") {
		t.Fatal("empty chart")
	}
	zero := &BarChart{}
	zero.Add("z", 0)
	_ = zero.String() // must not divide by zero
}

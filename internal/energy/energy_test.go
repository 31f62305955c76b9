package energy

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/metrics"
)

func baseStats() *metrics.Stats {
	return &metrics.Stats{
		Cycles:       100000,
		Instructions: 1000000,
		L1Accesses:   500000,
		LLCAccesses:  200000,
		DRAMReads:    50000,
		DRAMWrites:   20000,
		NoCBytes:     10 << 20,
	}
}

// computed returns baseStats with the energy fields Compute fills for a
// crossbar of the given ports and link width.
func computed(ports, width int) *metrics.Stats {
	cfg := config.Baseline()
	st := baseStats()
	Compute(&cfg, st, ports, width, DefaultParams())
	return st
}

func TestComputeFillsStats(t *testing.T) {
	st := computed(128, 16)
	if st.NoCEnergyNJ <= 0 || st.DRAMEnergyNJ <= 0 || st.CoreEnergyNJ <= 0 || st.LLCEnergyNJ <= 0 || st.StaticEnergyNJ <= 0 {
		t.Fatalf("zero component: %+v", *st)
	}
}

func TestNoCPowerScalesQuadraticallyWithPorts(t *testing.T) {
	small, big := computed(64, 16).NoCEnergyNJ, computed(128, 16).NoCEnergyNJ
	if big <= small {
		t.Fatal("NoC energy did not grow with radix")
	}
	// Static part quadruples when ports double; with dynamic included
	// the ratio must still exceed 2x for this traffic mix.
	if big/small < 1.5 {
		t.Fatalf("ratio %v too small", big/small)
	}
}

func TestNoCPowerScalesWithWidth(t *testing.T) {
	if narrow, wide := computed(128, 8).NoCEnergyNJ, computed(128, 64).NoCEnergyNJ; wide <= narrow {
		t.Fatal("NoC energy did not grow with link width")
	}
}

func TestLocalLinkEnergyCheaperThanNoC(t *testing.T) {
	p := DefaultParams()
	if p.LocalLinkByteNJ >= p.NoCByteBaseNJ {
		t.Fatal("point-to-point links must be cheaper per byte than the crossbar")
	}
}

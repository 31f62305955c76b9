// Package energy estimates GPU and NoC energy in the style of the paper's
// methodology (GPUWattch for the GPU, DSENT for the crossbar NoC, 22 nm).
//
// Absolute joules are not the goal — the reproduction targets the paper's
// relative results: the NoC's share of GPU energy, how crossbar power
// scales with radix and link width (quadratically with endpoints), and the
// energy effect of converting remote NoC traffic into local point-to-point
// traffic (Figures 10 and 13). Event energies are therefore plausible
// 22 nm constants exposed in Params and documented here rather than
// calibrated against silicon.
package energy

import (
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/metrics"
)

// Params are the event-energy constants (nanojoules) and power constants
// (watts) of the model.
type Params struct {
	// PerWarpInstrNJ covers fetch, decode, register file and execution
	// of one warp instruction across 32 lanes.
	PerWarpInstrNJ float64
	// L1AccessNJ / LLCAccessNJ are per 128 B tag+data access.
	L1AccessNJ  float64
	LLCAccessNJ float64
	// DRAMLineNJ is one 128 B HBM burst (~7 pJ/bit).
	DRAMLineNJ float64
	// NoCByteBaseNJ is crossbar traversal energy per byte for a
	// 64-endpoint reference; the effective per-byte energy scales with
	// (1 + ports/64) to reflect wire length growth with radix.
	NoCByteBaseNJ float64
	// NoCStaticWPerUnit is crossbar leakage+clock power per
	// ports^2 * widthBytes unit (DSENT-style quadratic area scaling).
	NoCStaticWPerUnit float64
	// LocalLinkByteNJ is the point-to-point SM<->LLC link energy per
	// byte — short wires, no switching fabric.
	LocalLinkByteNJ float64
	// GPUStaticW is the rest-of-GPU static power.
	GPUStaticW float64
}

// DefaultParams returns the 22 nm constants used throughout the
// reproduction.
func DefaultParams() Params {
	return Params{
		PerWarpInstrNJ:    0.5,
		L1AccessNJ:        0.15,
		LLCAccessNJ:       0.3,
		DRAMLineNJ:        8.0,
		NoCByteBaseNJ:     0.02,
		NoCStaticWPerUnit: 200e-6,
		LocalLinkByteNJ:   0.004,
		GPUStaticW:        40,
	}
}

// Compute derives the run's energy from its statistics and writes it into
// the five Stats energy fields. nocPorts and nocWidth describe the
// crossbar actually built for the architecture (they differ between UBA
// variants and NUBA).
func Compute(cfg *config.Config, st *metrics.Stats, nocPorts, nocWidth int, p Params) {
	seconds := float64(st.Cycles) / (cfg.CoreClockGHz * 1e9)

	radixFactor := 1 + float64(nocPorts)/64
	nocDynamic := float64(st.NoCBytes) * p.NoCByteBaseNJ * radixFactor
	nocStatic := p.NoCStaticWPerUnit * float64(nocPorts) * float64(nocPorts) * float64(nocWidth) * seconds * 1e9
	localLinks := float64(st.LocalLinkBytes) * p.LocalLinkByteNJ

	st.NoCEnergyNJ = nocDynamic + nocStatic + localLinks
	st.DRAMEnergyNJ = float64(st.DRAMReads+st.DRAMWrites) * p.DRAMLineNJ
	st.CoreEnergyNJ = float64(st.Instructions)*p.PerWarpInstrNJ + float64(st.L1Accesses)*p.L1AccessNJ
	st.LLCEnergyNJ = float64(st.LLCAccesses) * p.LLCAccessNJ
	st.StaticEnergyNJ = p.GPUStaticW * seconds * 1e9
}

// Package addrmap implements the physical address mapping policies of
// Section 2. The partition-aware fixed-channel map (Figure 2) selects the
// channel bits directly above the page offset and copies them verbatim, so
// the GPU driver controls page placement by choosing the physical frame;
// bank bits are randomized by harvesting entropy from the row bits, as in
// the PAE policy. The full PAE variant additionally randomizes the channel
// bits, which evens out load in UBA GPUs but defeats driver-controlled
// placement in NUBA GPUs.
package addrmap

import (
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// RowBytes is the DRAM row-buffer coverage per bank used for row-hit
// accounting: 1 KB chunks (8 cache lines) of the physical address space
// map to one (bank, row) pair, so streaming accesses enjoy row locality
// while the harvested entropy still spreads chunks across banks.
const RowBytes = 1024

// Mapper translates physical addresses to memory channel, DRAM bank, DRAM
// row and home LLC slice. It is a pure function of the address, shared by
// the L1-side routing logic, the LLC slices and the memory controllers.
type Mapper struct {
	policy           config.AddressMapping
	numChannels      int
	slicesPerChannel int
	banks            int
	pageShift        uint
}

// New returns a Mapper for the configuration.
func New(cfg *config.Config) *Mapper {
	shift := uint(0)
	for p := cfg.PageSize; p > 1; p >>= 1 {
		shift++
	}
	return &Mapper{
		policy:           cfg.AddressMap,
		numChannels:      cfg.NumChannels,
		slicesPerChannel: cfg.NumLLCSlices / cfg.NumChannels,
		banks:            cfg.BanksPerChan,
		pageShift:        shift,
	}
}

// PageShift returns log2 of the page size.
func (m *Mapper) PageShift() uint { return m.pageShift }

// PPN returns the physical page number of paddr.
func (m *Mapper) PPN(paddr uint64) uint64 { return paddr >> m.pageShift }

// Channel returns the memory channel that owns paddr. Under the
// fixed-channel policy the channel bits sit directly above the page offset;
// under PAE they are a hash of the physical page number.
func (m *Mapper) Channel(paddr uint64) int {
	ppn := paddr >> m.pageShift
	if m.policy == config.PAE {
		return int(sim.Mix(ppn) % uint64(m.numChannels))
	}
	return int(ppn % uint64(m.numChannels))
}

// Bank returns the DRAM bank within the channel. Bank bits are always
// randomized by harvesting entropy from the row bits (both policies), at
// RowBytes granularity so row locality survives.
func (m *Mapper) Bank(paddr uint64) int {
	chunk := paddr / RowBytes
	return int(sim.Mix(chunk) % uint64(m.banks))
}

// Row returns a row identifier such that two addresses with equal
// (Channel, Bank, Row) hit the same DRAM row buffer.
func (m *Mapper) Row(paddr uint64) uint64 {
	return (paddr / RowBytes) / uint64(m.banks)
}

// Slice returns the home LLC slice of paddr: the slice group is the
// channel, and the least-significant bank bit(s) select the slice within
// the channel's group (Section 2).
func (m *Mapper) Slice(paddr uint64) int {
	_, slice := m.Home(paddr)
	return slice
}

// Home returns the memory channel and the home LLC slice of paddr in one
// decode, for the routing code that stamps both on a request.
func (m *Mapper) Home(paddr uint64) (channel, slice int) {
	ch := m.Channel(paddr)
	if m.slicesPerChannel == 1 {
		return ch, ch
	}
	return ch, ch*m.slicesPerChannel + m.Bank(paddr)%m.slicesPerChannel
}

// ComposeFrame builds the physical page number for the frameSeq-th frame
// allocated to channel: the channel bits are the low bits of the PPN so
// that the fixed-channel policy preserves the driver's placement decision.
func (m *Mapper) ComposeFrame(frameSeq uint64, channel int) uint64 {
	return frameSeq*uint64(m.numChannels) + uint64(channel)
}

// FrameToAddr returns the base physical address of a physical page number.
func (m *Mapper) FrameToAddr(ppn uint64) uint64 { return ppn << m.pageShift }

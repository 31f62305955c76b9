// Package driver models the GPU driver's memory page placement (Section 4).
// On the first access to an unmapped page the driver picks the memory
// channel (= NUBA partition) that will hold the page; the partition-aware
// address map then preserves that choice. Implemented policies:
//
//   - FirstTouch: the channel of the partition whose SM faulted first.
//   - RoundRobin: channels in strict rotation.
//   - LAB (Local-And-Balanced): first-touch while the Normalized Page
//     Balance (NPB) is at or above the threshold (0.9 default), least-first
//     otherwise. NPB = (1/n) * sum_i P_i / max_j P_j.
//   - Migration: first-touch placement plus interval-based migration of
//     pages with a dominant remote accessor (§7.6 alternative).
//   - PageReplication: first-touch placement plus page-granularity
//     replication into reader partitions (§7.6 alternative).
package driver

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Page records the placement of one virtual page.
type Page struct {
	VPN uint64
	// PPN is the home physical page.
	PPN uint64
	// Channel is the home memory channel.
	Channel int
	// Replicas maps partition -> replica PPN for the PageReplication
	// policy; nil otherwise.
	Replicas map[int]uint64
	// Writable pages never get replicated by the page-replication
	// policy (set from the kernel's data-flow analysis).
	Writable bool
	// accesses[ch] counts accesses from partition ch in the current
	// migration interval.
	accesses []int32
	// BusyUntil blocks translation while the page is being migrated.
	BusyUntil sim.Cycle
}

// pageSlab caps the Page slabs: 14 records and an 8-byte allocation header
// fill a 1,024-byte size class, 73 bytes a record where one alone takes 80.
const pageSlab = 14

// Driver is the page placement engine. It owns the virtual-to-physical
// mapping used by the vm package.
type Driver struct {
	cfg    *config.Config
	mapper *addrmap.Mapper
	rng    *sim.RNG

	pages   map[uint64]*Page
	slab    []Page // where Allocate carves Page records (sim.Carve)
	slabLen int
	// counted holds every page record under Migration placement, the
	// pages MigrationCandidates scans; nil under every other placement.
	counted []*Page
	// pagesPerChannel is the LAB book-keeping array: one counter per
	// channel, exactly the 32-entry array the paper's driver keeps.
	pagesPerChannel []int64
	frameSeq        []uint64
	rrNext          int

	// Stats.
	Allocations   int64
	FirstTouchOps int64
	LeastFirstOps int64
	Migrations    int64
	Replications  int64
}

// New returns a driver for the configuration.
func New(cfg *config.Config, mapper *addrmap.Mapper) *Driver {
	return &Driver{
		cfg:             cfg,
		mapper:          mapper,
		rng:             sim.NewRNG(cfg.Seed ^ 0xd1e55e1),
		pages:           make(map[uint64]*Page),
		pagesPerChannel: make([]int64, cfg.NumChannels),
		frameSeq:        make([]uint64, cfg.NumChannels),
	}
}

// Lookup returns the page record for vpn, if mapped.
func (d *Driver) Lookup(vpn uint64) (*Page, bool) {
	p, ok := d.pages[vpn]
	return p, ok
}

// NPB computes the Normalized Page Balance of Equation 1:
// the mean over channels of P_i / max(P), in (0, 1]; 1 when perfectly
// balanced. An empty system is balanced by definition.
func (d *Driver) NPB() float64 {
	var maxP int64
	for _, p := range d.pagesPerChannel {
		if p > maxP {
			maxP = p
		}
	}
	if maxP == 0 {
		return 1
	}
	var sum float64
	for _, p := range d.pagesPerChannel {
		sum += float64(p) / float64(maxP)
	}
	return sum / float64(len(d.pagesPerChannel))
}

// leastFirst returns a channel with the minimum page count. The paper
// breaks ties arbitrarily; this implementation breaks them in favor of
// the requesting partition — when allocation is already balanced, LAB
// then retains first-touch locality instead of scattering pages.
func (d *Driver) leastFirst(homePart int) int {
	minV := d.pagesPerChannel[0]
	for _, p := range d.pagesPerChannel[1:] {
		if p < minV {
			minV = p
		}
	}
	if homePart < len(d.pagesPerChannel) && d.pagesPerChannel[homePart] == minV {
		return homePart
	}
	// Otherwise pick among the ties pseudo-randomly.
	n := 0
	for _, p := range d.pagesPerChannel {
		if p == minV {
			n++
		}
	}
	pick := d.rng.Intn(n)
	for ch, p := range d.pagesPerChannel {
		if p == minV {
			if pick == 0 {
				return ch
			}
			pick--
		}
	}
	return 0 // unreachable
}

// chooseChannel applies the placement policy for a page first touched by
// an SM in partition homePart.
func (d *Driver) chooseChannel(homePart int) int {
	switch d.cfg.Placement {
	case config.RoundRobin:
		ch := d.rrNext
		d.rrNext = (d.rrNext + 1) % d.cfg.NumChannels
		return ch
	case config.LAB:
		if d.NPB() >= d.cfg.LABThreshold {
			d.FirstTouchOps++
			return homePart
		}
		d.LeastFirstOps++
		return d.leastFirst(homePart)
	default: // FirstTouch, Migration, PageReplication all start first-touch
		d.FirstTouchOps++
		return homePart
	}
}

// Allocate maps vpn on its first touch by an SM in partition homePart and
// returns the page record. writable comes from the kernel's data-flow
// analysis and gates page replication.
func (d *Driver) Allocate(vpn uint64, homePart int, writable bool) *Page {
	if p, ok := d.Lookup(vpn); ok {
		return p
	}
	ch := d.chooseChannel(homePart)
	ppn := d.mapper.ComposeFrame(d.frameSeq[ch], ch)
	d.frameSeq[ch]++
	p := sim.Carve(&d.slabLen, &d.slab, pageSlab)
	*p = Page{VPN: vpn, PPN: ppn, Channel: ch, Writable: writable}
	if d.cfg.Placement == config.Migration || d.cfg.Placement == config.PageReplication {
		p.accesses = make([]int32, d.cfg.NumChannels)
	}
	if d.cfg.Placement == config.Migration {
		d.counted = append(d.counted, p)
	}
	d.pages[vpn] = p
	d.pagesPerChannel[ch]++
	d.Allocations++
	return p
}

// Translate returns the physical page the given partition should use for
// vpn: the local replica when one exists, the home page otherwise. ok is
// false when the page is unmapped (a first-touch fault must be taken).
func (d *Driver) Translate(vpn uint64, part int) (ppn uint64, ok bool) {
	ppn, _, ok = d.Resolve(vpn, part)
	return ppn, ok
}

// Resolve is Translate plus the cycle until which the page is
// mid-migration (Page.BusyUntil), from one page-table probe: what an SM
// needs to finish a translation after a TLB hit.
func (d *Driver) Resolve(vpn uint64, part int) (ppn uint64, busyUntil sim.Cycle, ok bool) {
	p, exists := d.pages[vpn]
	if !exists {
		return 0, 0, false
	}
	if p.Replicas != nil {
		if r, has := p.Replicas[part]; has {
			return r, p.BusyUntil, true
		}
	}
	return p.PPN, p.BusyUntil, true
}

// ChannelBalance returns each channel's page count normalized to the
// fullest channel — the per-partition components of the NPB mean
// (Equation 1). An empty system reports all ones, matching NPB's
// balanced-by-definition convention.
func (d *Driver) ChannelBalance() []float64 {
	out := make([]float64, len(d.pagesPerChannel))
	var maxP int64
	for _, p := range d.pagesPerChannel {
		if p > maxP {
			maxP = p
		}
	}
	for i, p := range d.pagesPerChannel {
		if maxP == 0 {
			out[i] = 1
		} else {
			out[i] = float64(p) / float64(maxP)
		}
	}
	return out
}

// PageCounts returns a copy of the per-channel page counters.
func (d *Driver) PageCounts() []int64 {
	out := make([]int64, len(d.pagesPerChannel))
	copy(out, d.pagesPerChannel)
	return out
}

// Pages returns the number of mapped virtual pages.
func (d *Driver) Pages() int { return len(d.pages) }

package core

import (
	"github.com/nuba-gpu/nuba/internal/kir"
)

// Placement prewarm.
//
// The paper simulates a 1-billion-instruction representative window of
// each benchmark, i.e. a mid-execution snapshot in which the working set
// has already been faulted in and placed by the driver; the 20 us
// first-touch fault penalty applies to genuinely cold pages, not to every
// page of the input. The simulator reproduces that by running a fast
// functional pass over each kernel before timing it: warps are
// interpreted without any timing model, and the first touch of each page
// invokes the driver's placement policy from the partition of the SM the
// CTA is scheduled on — exactly the placement the timed window would have
// inherited from the warmup. CTAs are interleaved round-robin across SMs
// in small quanta so the inter-SM first-touch order approximates
// concurrent execution (LAB's balance feedback sees an interleaved
// allocation stream, not one SM's pages at a time).
//
// Set Config.ColdStart to true to skip the prewarm and pay the full
// demand-fault cost during the timed run instead.

// prewarmQuantum is the number of instructions a warp executes per
// round-robin turn.
const prewarmQuantum = 16

type prewarmCTA struct {
	warps  []*kir.Warp
	atBar  []bool
	exited int
}

// prewarm functionally executes the launch, allocating pages on first
// touch with the configured placement policy.
func (g *GPU) prewarm(l *kir.Launch) {
	n := g.cfg.NumSMs
	// Each SM's next CTA and the end of its block, as the timed run
	// will assign them.
	todo := make([]struct{ next, end int }, n)
	for smID := range todo {
		todo[smID].next, todo[smID].end = ctaRange(l.GridDim, n, smID)
	}
	current := make([]*prewarmCTA, n)
	// Each SM runs its CTAs one after another through one prewarmCTA,
	// whose warps are reset in place.
	ctas := make([]prewarmCTA, n)
	shift := g.mapper.PageShift()

	var mem kir.MemInfo
	live := n
	for live > 0 {
		live = 0
		for smID := 0; smID < n; smID++ {
			cta := current[smID]
			if cta == nil {
				if todo[smID].next == todo[smID].end {
					continue
				}
				cta = &ctas[smID]
				cta.reset(l, todo[smID].next)
				todo[smID].next++
				current[smID] = cta
			}
			live++
			g.prewarmQuantumRun(l, cta, smID, shift, &mem)
			if cta.exited == len(cta.warps) {
				current[smID] = nil
			}
		}
	}
}

// reset makes p the warps of CTA cta, none of them run yet.
func (p *prewarmCTA) reset(l *kir.Launch, cta int) {
	if p.warps == nil {
		wpc := l.WarpsPerCTA()
		p.atBar = make([]bool, wpc)
		for w := 0; w < wpc; w++ {
			p.warps = append(p.warps, new(kir.Warp))
		}
	}
	for w := range p.warps {
		p.warps[w].Reset(l, cta, w)
	}
	clear(p.atBar)
	p.exited = 0
}

// prewarmQuantumRun advances every warp of the CTA by up to
// prewarmQuantum instructions and releases the CTA barrier once every
// non-exited warp reached it.
func (g *GPU) prewarmQuantumRun(l *kir.Launch, cta *prewarmCTA, smID int, shift uint, mem *kir.MemInfo) {
	part := g.cfg.PartitionOfSM(smID)
	for wi, w := range cta.warps {
		if w.Exited || cta.atBar[wi] {
			continue
		}
		for step := 0; step < prewarmQuantum; step++ {
			res := w.Exec(mem)
			switch res.Kind {
			case kir.StepMem:
				g.prewarmTouch(l, mem, part, shift)
			case kir.StepBarrier:
				cta.atBar[wi] = true
			case kir.StepExit:
				cta.exited++
			}
			if w.Exited || cta.atBar[wi] {
				break
			}
		}
	}
	running := 0
	for wi, w := range cta.warps {
		if !w.Exited && !cta.atBar[wi] {
			running++
		}
	}
	if running == 0 {
		for wi := range cta.atBar {
			cta.atBar[wi] = false
		}
	}
}

// prewarmTouch allocates the pages of a memory access on first touch.
func (g *GPU) prewarmTouch(l *kir.Launch, mem *kir.MemInfo, part int, shift uint) {
	writable := !l.Kernel.Buffers[mem.Buf].ReadOnly
	var last uint64 = ^uint64(0)
	for l := 0; l < kir.WarpSize; l++ {
		if mem.Mask&(1<<uint(l)) == 0 {
			continue
		}
		vpn := mem.Addrs[l] >> shift
		if vpn == last {
			continue
		}
		last = vpn
		if _, ok := g.drv.Lookup(vpn); !ok {
			g.drv.Allocate(vpn, part, writable)
		}
	}
}

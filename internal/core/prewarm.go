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

// prewarmSM is one SM's share of the prewarm: the CTAs of its block not
// yet started, as the timed run will assign them, and the warps of the
// one it runs now, reset in place for the next.
type prewarmSM struct {
	next, end int
	warps     []kir.Warp
	atBar     []bool
	exited    int
}

// prewarm functionally executes the launch, allocating pages on first
// touch with the configured placement policy.
func (g *GPU) prewarm(l *kir.Launch) {
	n, wpc := g.cfg.NumSMs, l.WarpsPerCTA()
	// The SMs that get CTAs, a prefix of at most GridDim, share the GPU's
	// one set of warp contexts, wpc apiece.
	sms := make([]prewarmSM, min(n, l.GridDim))
	warps := g.prewarmWarps.Fit(l, len(sms)*wpc)
	atBar := make([]bool, len(warps))
	for smID := range sms {
		p := &sms[smID]
		p.next, p.end = ctaRange(l.GridDim, n, smID)
		p.warps, p.atBar, p.exited = warps[smID*wpc:(smID+1)*wpc], atBar[smID*wpc:(smID+1)*wpc], wpc
	}
	shift := g.mapper.PageShift()

	var mem kir.MemInfo
	for live := true; live; {
		live = false
		for smID := range sms {
			p := &sms[smID]
			if p.exited == wpc { // no CTA running: start the next
				if p.next == p.end {
					continue
				}
				p.startNext(l)
			}
			live = true
			g.prewarmQuantumRun(l, p, smID, shift, &mem)
		}
	}
}

// startNext makes p's warps those of its next CTA, none of them run yet.
func (p *prewarmSM) startNext(l *kir.Launch) {
	for w := range p.warps {
		p.warps[w].Reset(l, p.next, w)
	}
	p.next++
	clear(p.atBar)
	p.exited = 0
}

// prewarmQuantumRun advances every warp of the SM's CTA by up to
// prewarmQuantum instructions and releases the CTA barrier once every
// non-exited warp reached it.
func (g *GPU) prewarmQuantumRun(l *kir.Launch, cta *prewarmSM, smID int, shift uint, mem *kir.MemInfo) {
	part := g.cfg.PartitionOfSM(smID)
	for wi := range cta.warps {
		w := &cta.warps[wi]
		for step := 0; step < prewarmQuantum && !w.Exited && !cta.atBar[wi]; step++ {
			switch w.Exec(mem).Kind {
			case kir.StepMem:
				g.prewarmTouch(l, mem, part, shift)
			case kir.StepBarrier:
				cta.atBar[wi] = true
			case kir.StepExit:
				cta.exited++
			}
		}
	}
	for wi := range cta.warps {
		if !cta.warps[wi].Exited && !cta.atBar[wi] {
			return
		}
	}
	clear(cta.atBar)
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

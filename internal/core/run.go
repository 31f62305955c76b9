package core

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// RunKernelContext executes one kernel launch to completion, including
// the kernel-boundary software-coherence flush (L1s and LLC, replica
// drop). The cycle loop polls ctx between batches of cycles and aborts
// the simulation with an error wrapping ctx.Err() once the context is
// done.
func (g *GPU) RunKernelContext(ctx context.Context, l *kir.Launch) error {
	if err := l.Validate(); err != nil {
		return err
	}
	g.launchSeq++
	start := g.cycle
	if !g.cfg.ColdStart {
		g.prewarm(l)
	}
	g.assignCTAs(l)
	if err := g.runUntilIdle(ctx); err != nil {
		return err
	}
	g.kernelBoundaryFlush()
	if err := g.runUntilIdle(ctx); err != nil {
		return err
	}
	if g.tracer != nil {
		g.tracer.KernelSpan(l.Kernel.Name, g.launchSeq, start, g.cycle)
	}
	return nil
}

// RunProgram executes a sequence of launches back-to-back (multi-kernel
// workloads such as the DNN benchmarks).
func (g *GPU) RunProgram(launches []*kir.Launch) error {
	return g.RunProgramContext(context.Background(), launches)
}

// RunProgramContext executes a sequence of launches under a context. A
// long simulation stops promptly (within one cycle batch) after the
// context is canceled, returning an error that wraps ctx.Err(); the GPU's
// statistics reflect the partial run.
func (g *GPU) RunProgramContext(ctx context.Context, launches []*kir.Launch) error {
	for i, l := range launches {
		if err := g.RunKernelContext(ctx, l); err != nil {
			return fmt.Errorf("kernel %d (%s): %w", i, l.Kernel.Name, err)
		}
	}
	g.traceFinish()
	return nil
}

// ctaRange is distributed CTA scheduling: SM sm of n runs the contiguous
// block [lo, hi) of a grid of grid CTAs, ⌈grid/n⌉ to an SM — contiguity
// maximizes the locality that first-touch/LAB placement exploits. An SM
// beyond the grid (a launch smaller than the machine) gets an empty
// range. The timed run (assignCTAs) and the prewarm that reproduces its
// first-touch placement both read it, so the two agree by construction.
func ctaRange(grid, n, sm int) (lo, hi int) {
	per := (grid + n - 1) / n
	lo = min(sm*per, grid)
	return lo, min(lo+per, grid)
}

// assignCTAs hands every SM its block of the grid, as a range: no per-SM
// slice allocation.
func (g *GPU) assignCTAs(l *kir.Launch) {
	for smID, s := range g.sms {
		lo, hi := ctaRange(l.GridDim, len(g.sms), smID)
		s.StartKernel(l, lo, hi)
	}
}

// batchCycles is the granularity at which runUntilIdle polls the context
// and checks for quiescence and the MaxCycles limit. All engines
// evaluate those conditions only at batch boundaries, which keeps their
// reported cycle counts on the same lattice and therefore byte-identical.
const batchCycles = 64

// runUntilIdle advances the clock until every component drains, the
// context is canceled, the watchdog declares a hang or the run reaches
// MaxCycles. The ctx poll sits outside the per-batch inner loop so its
// cost is amortized over thousands of component ticks. The batch is
// clamped at MaxCycles so a runaway workload stops exactly at the
// configured limit instead of overshooting by up to a whole batch.
// However the loop ends, the statistics reflect the cycles simulated.
// A hybrid jump goes on over every whole batch its idle window covers
// (DESIGN.md §9 "The loop"): the state is frozen there, so those
// boundaries run no scan and no quiet(), and the rest is checked as ever.
func (g *GPU) runUntilIdle(ctx context.Context) error {
	var err error
	var idle sim.Cycle // the last cycle of the window the last jump proved idle
	for {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("core: run canceled at cycle %d: %w", g.cycle, cerr)
			break
		}
		target := g.cycle + batchCycles
		if maxC := sim.Cycle(g.cfg.MaxCycles); g.cycle < maxC && target > maxC {
			target = maxC
		}
		frozen := target <= idle
		if frozen {
			g.skipTo(target)
		} else if idle, err = g.advance(target); err != nil {
			break
		}
		if f := g.flt; f != nil && f.panicAt > 0 && g.cycle >= f.panicAt {
			panic(fmt.Sprintf("core: injected fault: panic at cycle %d", g.cycle))
		}
		if !frozen && g.quiet() {
			break
		}
		if err = g.wd.check(g); err != nil {
			break
		}
		if int64(g.cycle) >= g.cfg.MaxCycles {
			g.hitMaxCycles = true
			err = fmt.Errorf("core: run exceeded MaxCycles=%d (runaway workload)", g.cfg.MaxCycles)
			break
		}
	}
	g.stats.Cycles = int64(g.cycle)
	g.collect()
	return err
}

// step advances the whole system by one core cycle. It is the only
// function that sequences component ticks: translation, SMs, the fabric
// (moveFabric: links, crossbars and the egress deliveries between SMs
// and slices) when a carrier is due or a core queue waits on it, slices,
// channels on the memory clock, then the timers.
func (g *GPU) step() {
	g.cycle++
	now := g.cycle
	g.es.Stepped++

	g.vmsys.Tick(now)
	g.tickKind(kindSM, now, now)
	if g.fabric.At() <= now || g.engine == EngineNaive || !g.invalQueue.Empty() || len(g.fillRetry) > 0 {
		g.moveFabric(now)
		g.fabric.Refold() // every walk has ended: the members' minima are exact
	} else if g.es.FabricSkipped++; g.engine == EngineSanitize {
		g.checkFabric(now)
	}
	g.tickKind(kindSlice, now, now)
	if div := sim.Cycle(g.cfg.MemClockDiv); now%div == 0 {
		g.tickKind(kindChan, now, now/div)
	}

	if g.engine == EngineSanitize && g.unsound == nil && g.audit.First() != "" {
		g.unsound = fmt.Errorf("core: sanitize: unsound park: %s", g.audit.First())
	}

	if g.mdrCtl != nil {
		g.mdrCtl.Tick(now)
	}
	if g.cfg.Placement == config.Migration && now >= g.nextMigScan {
		g.runMigrationScan(now)
		g.nextMigScan = now + g.cfg.MigrationInterval
	}
	g.drainMigQueue()

	if g.tracer != nil && now >= g.tr.next {
		g.traceSample(now)
		g.tr.next = now + g.tracer.EpochCycles()
	}
}

// tickKind ticks, in ascending index, kind k's components whose turn it is
// at cycle now; t is the cycle their Tick takes (the memory clock's, for a
// channel). A frozen component (fault.go) is one whose tick is skipped; so
// is, under hybrid, one whose sleep deadline lies ahead, and hybrid walks
// only the due carriers of the kind's set: a door opened during the walk
// on a higher index ticks that component this cycle, on a lower index the
// next. Naive ignores deadlines, and the sanitizer ticks each sleeper
// anyway (checkSleeper).
func (g *GPU) tickKind(k int, now, t sim.Cycle) {
	g.es.walks[k]++
	w := &g.asleep[k]
	if g.engine != EngineHybrid {
		check := g.engine == EngineSanitize
		for i := range w.Len() {
			switch {
			case g.frozen(k, i, now):
			case check && now < w.At(i):
				g.checkSleeper(k, i, t)
			default:
				g.es.Ran[k]++
				g.tick(k, i, t)
			}
		}
		return
	}
	// The walk is inline, the tick a direct call: on a machine where every
	// component is awake it costs what a loop over all of them would.
	flt, ran, lo := g.flt, int64(0), sim.Never
	occ, at := w.Sweep(now)
	for j := range occ {
		for word := occ[j]; word != 0; {
			b := bits.TrailingZeros64(word)
			i := j<<6 | b
			if at[i] <= now && (flt == nil || !g.frozen(k, i, now)) {
				ran++
				switch k {
				case kindSM:
					g.sms[i].Tick(t)
				case kindSlice:
					g.slices[i].Tick(t)
				default:
					g.chans[i].Tick(t)
				}
			}
			lo = min(lo, at[i])
			word = occ[j] & (^uint64(1) << b)
		}
	}
	w.Fold(lo)
	g.es.Ran[k] += ran
}

// tick ticks kind k's component i at t, as tickKind's walk does.
func (g *GPU) tick(k, i int, t sim.Cycle) {
	switch k {
	case kindSM:
		g.sms[i].Tick(t)
	case kindSlice:
		g.slices[i].Tick(t)
	default:
		g.chans[i].Tick(t)
	}
}

// frozen reports whether a fault freezes kind k's component i at cycle now,
// counting the tick it skips.
func (g *GPU) frozen(k, i int, now sim.Cycle) bool {
	if g.flt == nil || k == kindChan || !g.flt.frozen(freezeKind[k], i, now) {
		return false
	}
	g.es.frozen[k]++
	return true
}

// runMigrationScan applies the §7.6 migration policy's interval decision.
func (g *GPU) runMigrationScan(now sim.Cycle) {
	// The page busy window covers the 4 KB copy plus TLB shootdown.
	const migrationBusy = 4000
	for _, a := range g.drv.MigrationCandidates(now) {
		old := a.Page.PPN
		g.drv.ApplyMigration(a.Page, a.To, now+migrationBusy)
		g.shootdown(a.Page.VPN)
		g.chargePageCopy(old, a.Page.PPN)
		if g.tracer != nil {
			g.tracer.PageMigration(now, a.Page.VPN, a.From, a.To)
		}
	}
}

// quiet reports whether every component has drained.
func (g *GPU) quiet() bool {
	for i := range g.parts {
		if !g.parts[i].Idle() {
			return false
		}
	}
	return true
}

// kernelBoundaryFlush applies software coherence at the kernel boundary:
// L1s invalidate, replicas drop, and the LLC flushes (dirty lines write
// back), exactly the overhead Section 5.3 says must be modeled.
func (g *GPU) kernelBoundaryFlush() {
	for _, s := range g.sms {
		s.FlushL1()
	}
	for _, sl := range g.slices {
		sl.DropReplicas()
		sl.Flush(g.cycle)
	}
}

// collect aggregates component counters into the run statistics.
func (g *GPU) collect() {
	var dramReads, dramWrites, rowHits, rowMisses int64
	for _, ch := range g.chans {
		dramReads += ch.Reads
		dramWrites += ch.Writes
		rowHits += ch.RowHits
		rowMisses += ch.RowMisses
	}
	g.stats.DRAMReads = dramReads
	g.stats.DRAMWrites = dramWrites
	g.stats.DRAMRowHits = rowHits
	g.stats.DRAMRowMisses = rowMisses

	g.stats.NoCBytes, g.stats.NoCFlits, _ = g.nocTotals()

	reqBytes, _, _ := g.smReq.Totals()
	replyBytes, _, _ := g.sliceReply.Totals()
	g.stats.LocalLinkBytes = reqBytes + replyBytes

	g.stats.PageMigrations = g.drv.Migrations
	g.stats.PageReplicas = g.drv.Replications
}

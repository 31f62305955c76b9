package core

import (
	"context"
	"fmt"

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
func (g *GPU) runUntilIdle(ctx context.Context) error {
	var err error
	for {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("core: run canceled at cycle %d: %w", g.cycle, cerr)
			break
		}
		target := g.cycle + batchCycles
		if maxC := sim.Cycle(g.cfg.MaxCycles); g.cycle < maxC && target > maxC {
			target = maxC
		}
		if err = g.advance(target); err != nil {
			break
		}
		if f := g.flt; f != nil && f.panicAt > 0 && g.cycle >= f.panicAt {
			panic(fmt.Sprintf("core: injected fault: panic at cycle %d", g.cycle))
		}
		if g.quiet() {
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
// and slices), slices, channels on the memory clock, then
// the timers. A frozen component (fault.go) is one whose tick is skipped;
// so is one whose sleep deadline is in the future — but naive ignores
// deadlines and the sanitizer ticks the sleeper anyway (checkSleeper).
func (g *GPU) step() {
	g.cycle++
	now := g.cycle
	flt := g.flt
	gate, check := g.engine != EngineNaive, g.engine == EngineSanitize
	g.es.Stepped++

	g.vmsys.Tick(now)
	for i, s := range g.sms {
		if flt != nil && flt.frozen(WedgeSM, i, now) {
			continue
		}
		if gate && now < *s.SleepUntil() {
			if g.es.Slept[kindSM]++; check {
				g.checkSleeper(kindSM, i, s, now)
			}
			continue
		}
		g.es.Ran[kindSM]++
		s.Tick(now)
	}
	g.moveFabric(now)
	for j, sl := range g.slices {
		if flt != nil && flt.frozen(StallLLC, j, now) {
			continue
		}
		if gate && now < *sl.SleepUntil() {
			if g.es.Slept[kindSlice]++; check {
				g.checkSleeper(kindSlice, j, sl, now)
			}
			continue
		}
		g.es.Ran[kindSlice]++
		sl.Tick(now)
	}
	if now%sim.Cycle(g.cfg.MemClockDiv) == 0 {
		mem := int64(now) / int64(g.cfg.MemClockDiv)
		for c, ch := range g.chans {
			if gate && now < *ch.SleepUntil() {
				if g.es.Slept[kindChan]++; check {
					g.checkSleeper(kindChan, c, ch, mem)
				}
				continue
			}
			g.es.Ran[kindChan]++
			ch.Tick(mem)
		}
	}

	if check && g.unsound == nil && g.audit.First() != "" {
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
		if g.parts[i].pending() {
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

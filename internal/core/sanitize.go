package core

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// EngineSanitize, the dynamic proof of the wake-hint contract. The
// hybrid engine's correctness rests on one claim: when nextWake()
// returns w, ticking every component on any cycle in (now, w-1] is a
// no-op. Instead of skipping a claimed-idle window, GPU.advance hands
// it to verifyIdleWindow, which steps through it cycle by cycle —
// exactly what EngineNaive would do — and cross-checks every table
// row's state signature (StateSig, internal/sim/sig.go), the timers and
// the run statistics after each step. Any change proves the hint
// unsound and fails the run with the cycle, the component and the
// claimed wake. The scan itself is held to the same standard: it is
// repeated once after the snapshot, so a hint that is not a pure
// observation — one that answers differently the second time, or
// changes state a signature covers — fails the same way.
//
// Because verification is plain stepping, a clean sanitize run is
// byte-identical to both other engines; its only cost is wall-clock.

// timerSig covers the time-driven state that has no table row: the MDR
// controller and the migration-scan and trace-epoch deadlines. nextWake
// bounds every idle window by them, so they too must hold still inside
// one.
func (g *GPU) timerSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(g.nextMigScan))
	h = sim.MixSig(h, uint64(g.tr.next))
	if g.mdrCtl != nil {
		h = sim.MixSig(h, g.mdrCtl.StateSig())
	}
	return h
}

// verifyIdleWindow checks the hint contract over (g.cycle, end]: it
// snapshots every row's signature, the timers and the run statistics,
// repeats the hint scan — which must answer wake again, and whose side
// effects, if it has any, now sit on top of the snapshot — then steps
// one cycle at a time re-checking all three. wake is the hint scan's
// claimed next wake-up (end is wake-1 clamped to the batch target),
// reported in the diagnostic so an unsound hint is immediately
// attributable.
func (g *GPU) verifyIdleWindow(wake, end sim.Cycle) error {
	n := len(g.parts)
	sigs := make([]uint64, n+1)
	for i := range g.parts {
		sigs[i] = g.parts[i].StateSig()
	}
	sigs[n] = g.timerSig()
	statsBefore := *g.stats
	start := g.cycle
	unsound := func(what string) error {
		return fmt.Errorf("core: sanitize: unsound wake hint: %s at cycle %d inside idle window (%d, %d] (hint scan at cycle %d claimed no progress before %d)",
			what, g.cycle, start, end, start, wake)
	}
	if again := g.nextWake(); again != wake {
		return unsound(fmt.Sprintf("hint scan not repeatable (a second scan claims %d)", again))
	}
	for g.cycle < end {
		g.step()
		for i := range g.parts {
			if g.parts[i].StateSig() != sigs[i] {
				return unsound(g.parts[i].name() + " changed state")
			}
		}
		if g.timerSig() != sigs[n] {
			return unsound("core timers changed state")
		}
		if *g.stats != statsBefore {
			return unsound("run statistics changed")
		}
	}
	return nil
}

// checkSleeper is the same oracle one component at a time: step hands it
// every component whose deadline says "skip me", on every stepped cycle,
// and it ticks kind k's component i at t anyway. A signature or statistic
// that moves proves the deadline unsound and fails the run (advance). The
// deadline is put back, so the run sees exactly the deadlines hybrid
// would.
func (g *GPU) checkSleeper(k, i int, t sim.Cycle) {
	row := &g.parts[g.firstRow(k)+i]
	sig, stats, until := row.StateSig(), *g.stats, row.sleep.At()
	g.tick(k, i, t)
	if g.unsound == nil && (row.StateSig() != sig || *g.stats != stats) {
		g.unsound = fmt.Errorf("core: sanitize: unsound sleep: %s changed state when ticked at cycle %d, asleep until %d",
			row.name(), g.cycle, until)
	}
	row.sleep.Set(until)
}

// checkFabric is the same oracle for the fabric phase: step hands it every
// cycle whose phase the fabric deadline skips, and it runs the phase anyway.
// A fabric row whose signature moves, or a fabric site whose offers taken
// do, proves the deadline unsound and fails the run (a parked head the
// audit offers and the receiver refuses again moves neither). It does not
// refold the deadline, which stays the stale one hybrid would keep.
func (g *GPU) checkFabric(now sim.Cycle) {
	rows, sigs := g.parts[g.firstRow(len(g.asleep)):g.fabricEnd], make([]uint64, 0, 16)
	for i := range rows {
		sigs = append(sigs, rows[i].StateSig())
	}
	due, before := g.fabric.At(), g.EngineStats().Sites
	g.moveFabric(now)
	after, moved := g.EngineStats().Sites, []string(nil)
	for i := range rows {
		if rows[i].StateSig() != sigs[i] {
			moved = append(moved, rows[i].name())
		}
	}
	for s := siteSMReqDrain; s <= siteSliceReplyDrain; s++ {
		if after[s].Offered-after[s].Refused != before[s].Offered-before[s].Refused {
			moved = append(moved, siteLabel[s]+" offers")
		}
	}
	if moved != nil && g.unsound == nil {
		g.unsound = fmt.Errorf("core: sanitize: unsound fabric deadline: %s moved at cycle %d, the deadline said nothing was due before %s",
			strings.Join(moved, ", "), now, sim.Until(due))
	}
}

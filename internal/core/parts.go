package core

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// The component table. Everything GPU.step ticks or drains has one row
// in g.parts, and every walk over "all components" — the idle-skip wake
// scan (componentWake), quiet, the sanitizer's signature probes, the
// watchdog's progress signature and CaptureHang — is a loop over that
// one slice. A component therefore cannot be ticked by the engine yet
// invisible to one of the walks: it is in all of them or in none, and
// "none" is caught by the sanitizer and the cross-engine suites (state
// changes inside a window every row called idle). The sleepers lead the
// table — SMs, slices, channels — and the wake scan reads their deadlines
// (g.asleep), asking a sleeper's row only when a door has woken it.
//
// Time-driven state (the MDR controller's epoch clock, the migration
// scan, the trace epoch) deliberately has no row: it fires regardless
// of component activity, so it lives in nextWake and in the sanitizer's
// timerSig, and stays out of the watchdog's progress signature.

// component is what the engine needs from anything it ticks, in the one
// vocabulary every component type speaks, so the table holds the
// components themselves. A type missing one of the four cannot be
// registered.
type component interface {
	// NextWake returns the earliest cycle after now at which the component
	// could make progress on its own: now+1 (or earlier) while active, a
	// future cycle when parked on a known timer, sim.Never when drained
	// or waiting on another component. It must be a pure observation:
	// the sanitizer asks twice (verifyIdleWindow).
	NextWake(now sim.Cycle) sim.Cycle
	// Idle reports whether the component holds no work.
	Idle() bool
	// StateSig hashes the state a tick can change, excluding pure time
	// progress (internal/sim/sig.go).
	StateSig() uint64
	// DebugState is the queue-depth summary shown in hang reports.
	DebugState(now sim.Cycle) string
}

// part is one row of the table: a component plus what name() needs. The
// label and index are kept raw and only formatted when a diagnostic is
// rendered.
type part struct {
	component
	label string
	i     int // -1 when unused: "vm system", "SM 3", "SM-request links"
	// sleep is the component's sleep deadline (DESIGN.md §9), nil for a
	// row without one.
	sleep *sim.Slot
}

func (p *part) name() string {
	if p.i < 0 {
		return p.label
	}
	return fmt.Sprintf("%s %d", p.label, p.i)
}

// register appends a row. It is the only way rows are made, so a row
// always has all five answers, and a sleeper's row its deadline.
func (g *GPU) register(c component, label string, i int) {
	p := part{component: c, label: label, i: i}
	if s, ok := c.(interface{ Sleep() *sim.Slot }); ok {
		p.sleep = s.Sleep()
	}
	g.parts = append(g.parts, p)
}

// firstRow returns the row of kind k's component 0, and with k = 3 the
// first row after the sleepers.
func (g *GPU) firstRow(k int) (row int) {
	for j := range k {
		row += g.asleep[j].Len()
	}
	return row
}

// parker is a row whose component parks refused heads (DESIGN.md §9
// "Parks"); SetEngine hands every one the engine's park audit.
type parker interface{ SetAudit(a *sim.ParkAudit) }

// coreQueues is the state the GPU itself owns between components, all
// retried every cycle while non-empty: the page-migration queue, and the
// SM-side UBA's invalidation queue and fill-retry list (fills that found
// the inter-half link full).
type coreQueues struct{ *GPU }

func (p coreQueues) NextWake(now sim.Cycle) sim.Cycle {
	if p.Idle() {
		return sim.Never
	}
	return now + 1
}
func (p coreQueues) Idle() bool {
	return p.migQueue.Empty() && p.invalQueue.Empty() && len(p.fillRetry) == 0
}
func (p coreQueues) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(p.migQueue.Len()))
	h = sim.MixSig(h, uint64(p.invalQueue.Len()))
	return sim.MixSig(h, uint64(len(p.fillRetry)))
}
func (p coreQueues) DebugState(sim.Cycle) string {
	return fmt.Sprintf("migQ=%d invalQ=%d fillRetry=%d", p.migQueue.Len(), p.invalQueue.Len(), len(p.fillRetry))
}

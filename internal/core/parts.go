package core

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/dram"
	"github.com/nuba-gpu/nuba/internal/llc"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/smcore"
	"github.com/nuba-gpu/nuba/internal/vm"
)

// The component table. Everything GPU.step ticks or drains has one row
// in g.parts, and every walk over "all components" — the idle-skip wake
// scan (componentWake), quiet, the sanitizer's signature probes, the
// watchdog's progress signature and CaptureHang — is a loop over that
// one slice. A component therefore cannot be ticked by the engine yet
// invisible to one of the walks: it is in all of them or in none, and
// "none" is caught by the sanitizer and the cross-engine suites (state
// changes inside a window every row called idle).
//
// Time-driven state (the MDR controller's epoch clock, the migration
// scan, the trace epoch) deliberately has no row: it fires regardless
// of component activity, so it lives in nextWake and in the sanitizer's
// timerSig, and stays out of the watchdog's progress signature.

// component is what the engine needs from anything it ticks. A type
// missing one of the four cannot be registered.
type component interface {
	// wakeAt returns the earliest cycle after now at which the component
	// could make progress on its own: now+1 (or earlier) while active, a
	// future cycle when parked on a known timer, sim.Never when drained
	// or waiting on another component. It must be a pure observation:
	// the sanitizer asks twice (verifyIdleWindow).
	wakeAt(now sim.Cycle) sim.Cycle
	// pending reports whether the component still holds work.
	pending() bool
	// StateSig hashes the state a tick can change, excluding pure time
	// progress (internal/sim/sig.go).
	StateSig() uint64
	// detail is the queue-depth summary shown in hang reports.
	detail(now sim.Cycle) string
}

// part is one row of the table: a component plus what name() needs. The
// label and indices are kept raw and only formatted when a diagnostic
// is rendered.
type part struct {
	component
	label string
	i, j  int // -1 when unused: "vm system", "SM 3", "inter-module link 0->1"
	// sleep is where the component's sleep deadline lives (DESIGN.md §9),
	// nil for a row without one; occ and bit are a link's occupancy word
	// and its bit in it (linkSet.add), nil for every other row.
	sleep *sim.Cycle
	occ   *uint64
	bit   uint64
}

func (p *part) name() string {
	switch {
	case p.i < 0:
		return p.label
	case p.j < 0:
		return fmt.Sprintf("%s %d", p.label, p.i)
	default:
		return fmt.Sprintf("%s %d->%d", p.label, p.i, p.j)
	}
}

// register appends a row. It is the only way rows are made, so a row
// always has all five answers, and a sleeper's row its deadline's address.
func (g *GPU) register(c component, label string, i, j int) {
	p := part{component: c, label: label, i: i, j: j}
	if s, ok := c.(sleeper); ok {
		p.sleep = s.SleepUntil()
	}
	g.parts = append(g.parts, p)
}

// The adapters below spell each component's own hint vocabulary
// (NextWake / NextEvent / NextReady, Idle / Pending) as a component.
// All but chanPart wrap a single pointer, so storing one in the table
// allocates nothing.

type smPart struct{ *smcore.SM }

func (p smPart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextWake(now) }
func (p smPart) pending() bool                  { return !p.Idle() }
func (p smPart) detail(sim.Cycle) string        { return p.DebugState() }

type xbarPart struct{ *noc.Crossbar }

func (p xbarPart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextEvent(now) }
func (p xbarPart) pending() bool                  { return p.Pending() }
func (p xbarPart) detail(sim.Cycle) string {
	in, mid, out := p.Occupied()
	return fmt.Sprintf("in=%d mid=%d out=%d", in, mid, out)
}

type linkPart[T any] struct{ *sim.Link[T] }

func (p linkPart[T]) wakeAt(sim.Cycle) sim.Cycle { return p.NextReady() }
func (p linkPart[T]) pending() bool              { return p.Pending() > 0 }
func (p linkPart[T]) detail(sim.Cycle) string    { return fmt.Sprintf("pending=%d", p.Pending()) }

type slicePart struct{ *llc.Slice }

func (p slicePart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextEvent(now) }
func (p slicePart) pending() bool                  { return p.Pending() }
func (p slicePart) detail(sim.Cycle) string        { return p.DebugState() }

// chanPart owns the clock-domain conversion: channels tick on the
// memory clock, so a channel's next chance to act is the first
// mem-clock boundary at or after its own next event.
type chanPart struct {
	*dram.Channel
	div sim.Cycle
}

func (p *chanPart) wakeAt(now sim.Cycle) sim.Cycle {
	m, ok := p.NextEvent()
	if !ok {
		return sim.Never
	}
	t := sim.Cycle(m) * p.div
	if boundary := (now/p.div + 1) * p.div; t < boundary {
		t = boundary
	}
	return t
}
func (p *chanPart) pending() bool               { return p.Pending() }
func (p *chanPart) detail(now sim.Cycle) string { return p.DebugState(int64(now / p.div)) }

type vmPart struct{ *vm.System }

func (p vmPart) wakeAt(sim.Cycle) sim.Cycle { return p.NextEvent() }
func (p vmPart) pending() bool              { return p.Pending() }
func (p vmPart) detail(sim.Cycle) string    { return "in-flight page walks" }

// coreQueues is the state the GPU itself owns between components: the
// migration and invalidation queues and the fill-retry list, all
// retried every cycle while non-empty.
type coreQueues struct{ *GPU }

func (p coreQueues) wakeAt(now sim.Cycle) sim.Cycle {
	if p.pending() {
		return now + 1
	}
	return sim.Never
}
func (p coreQueues) pending() bool {
	return !p.migQueue.Empty() || !p.invalQueue.Empty() || len(p.migFillRetry) > 0
}
func (p coreQueues) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(p.migQueue.Len()))
	h = sim.MixSig(h, uint64(p.invalQueue.Len()))
	return sim.MixSig(h, uint64(len(p.migFillRetry)))
}
func (p coreQueues) detail(sim.Cycle) string {
	return fmt.Sprintf("migQ=%d invalQ=%d fillRetry=%d", p.migQueue.Len(), p.invalQueue.Len(), len(p.migFillRetry))
}

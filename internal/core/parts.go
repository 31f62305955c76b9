package core

import (
	"fmt"
	"strings"

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
// changes inside a window every row called idle). The sleepers lead the
// table — SMs, slices, channels — and the wake scan reads their deadlines'
// sets (g.asleep) before it asks their rows.
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

// The adapters below spell each component's own hint vocabulary
// (NextWake / NextEvent, Idle / Pending) as a component. All but chanPart
// wrap a single pointer, so storing one in the table allocates nothing.

type smPart struct{ *smcore.SM }

func (p smPart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextWake(now) }
func (p smPart) pending() bool                  { return !p.Idle() }
func (p smPart) detail(sim.Cycle) string        { return p.DebugState() }
func (p smPart) SetAudit(a *sim.ParkAudit)      { p.Audit = a }

type xbarPart struct{ *noc.Crossbar }

func (p xbarPart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextEvent(now) }
func (p xbarPart) pending() bool                  { return p.Pending() }
func (p xbarPart) detail(sim.Cycle) string {
	in, mid, out := p.Occupied()
	return fmt.Sprintf("in=%d mid=%d out=%d", in, mid, out)
}

// linksPart is a link set as one row, like a crossbar: its wake is the
// minimum over its links' (sim.Wakes), so an empty set costs the scan one
// compare, and its detail names the occupied links and their parks.
type linksPart[T any] struct{ *sim.Links[T] }

func (p linksPart[T]) wakeAt(now sim.Cycle) sim.Cycle { return max(p.W.Min(), now+1) }
func (p linksPart[T]) pending() bool                  { return p.W.Any() }
func (p linksPart[T]) SetAudit(a *sim.ParkAudit)      { p.W.Audit = a }
func (p linksPart[T]) detail(sim.Cycle) string {
	var b []string
	for k, l := range p.L {
		if !p.W.Has(k) {
			continue
		}
		s := fmt.Sprintf("[%d] pending=%d", k, l.Pending())
		if w := p.W.At(k); w > l.NextReady() {
			s += " parked-until=" + sim.Until(w)
		}
		b = append(b, s)
	}
	return strings.Join(b, " ")
}

type slicePart struct{ *llc.Slice }

func (p slicePart) wakeAt(now sim.Cycle) sim.Cycle { return p.NextEvent(now) }
func (p slicePart) pending() bool                  { return p.Pending() }
func (p slicePart) detail(sim.Cycle) string        { return p.DebugState() }
func (p slicePart) SetAudit(a *sim.ParkAudit)      { p.Audit = a }

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

package core

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// The fault-injection harness, whole: a vocabulary of seven faults and
// one entry point, GPU.Inject. Faults act where the GPU is sequenced —
// step and moveXbars skip a frozen component's tick, a dropped reply is
// a wrapper around one channel's Respond port, the hint bias and the
// panic sit in nextWake and runUntilIdle — so the component packages
// carry the model and no test scaffolding (DESIGN.md §10). g.flt stays
// nil in production runs: the cycle loop pays one nil test per site,
// like the trace probes. Taxonomy and detection: docs/ROBUSTNESS.md.

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// WedgeSM, StallLLC and StallNoC stop ticking one component over
	// [At, Until), Until 0 = forever. WedgeSM: an SM that still holds
	// live warps, the silent hang the watchdog must catch.
	WedgeSM FaultKind = iota
	// StallLLC: an LLC slice with requests queued.
	StallLLC
	// SlowLLC degrades one LLC slice from cycle At to one tick every
	// Period cycles — slow but live, so the watchdog must NOT flag it.
	SlowLLC
	// StallNoC: a request crossbar's arbitration, messages in flight.
	StallNoC
	// DropDRAMReply swallows one DRAM channel's (After+1)-th read reply:
	// the waiting MSHR never fills and every wake hint goes to Never
	// with work pending.
	DropDRAMReply
	// HintBias adds Bias cycles to every future wake the hint scan
	// reports: the unsound hint EngineSanitize must catch.
	HintBias
	// PanicAt panics in the cycle loop at the first batch boundary at or
	// after cycle At: the invariant blowup the experiment pool isolates.
	PanicAt
)

var faultNames = [...]string{"wedge-sm", "stall-llc", "slow-llc", "stall-noc", "drop-dram-reply", "hint-bias", "panic"}

// String returns the name used in reports and docs/ROBUSTNESS.md.
func (k FaultKind) String() string {
	if k < 0 || int(k) >= len(faultNames) {
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
	return faultNames[k]
}

// Fault is one injectable fault; each kind reads the fields its
// comment above names and ignores the rest.
type Fault struct {
	Kind FaultKind
	// Target is the victim's global index (SM, slice, request crossbar
	// or channel, by Kind); -1 picks one from the seed. HintBias and
	// PanicAt are system-wide and ignore it.
	Target int
	At     sim.Cycle
	Until  sim.Cycle
	Period sim.Cycle
	Bias   sim.Cycle
	After  int64
}

// freezeKind is the fault that freezes each kind of sleeper; no fault
// freezes a channel.
var freezeKind = [...]FaultKind{kindSM: WedgeSM, kindSlice: StallLLC}

// coreFault is the armed state behind g.flt.
type coreFault struct {
	freezes  []freeze
	hintBias sim.Cycle
	panicAt  sim.Cycle // 0 = none
}

// freeze keeps component idx of kind's class (WedgeSM, StallLLC or
// StallNoC; a SlowLLC is a StallLLC with a period) from ticking: on
// every cycle of [from, until) — until 0 = forever — or, with a
// period, on all but every period-th cycle from from.
type freeze struct {
	kind                FaultKind
	idx                 int
	from, until, period sim.Cycle
}

// frozen reports whether a freeze holds the component at cycle now.
// Kept out of line so that step's loops stay a nil test and the tick
// when nothing is armed: inlined into them, this loop cost ≈ 4 % of a
// dense run's CPU (CHANGES.md, PR 18).
//
//go:noinline
func (c *coreFault) frozen(kind FaultKind, idx int, now sim.Cycle) bool {
	for _, f := range c.freezes {
		if f.kind != kind || f.idx != idx || now < f.from {
			continue
		}
		if f.period > 0 {
			if (now-f.from)%f.period != 0 {
				return true
			}
		} else if f.until == 0 || now < f.until {
			return true
		}
	}
	return false
}

// targets returns how many components a kind can target; 0 for the
// system-wide kinds.
func (g *GPU) targets(k FaultKind) (int, error) {
	switch k {
	case WedgeSM:
		return len(g.sms), nil
	case StallLLC, SlowLLC:
		return len(g.slices), nil
	case StallNoC:
		return len(g.reqXbars), nil
	case DropDRAMReply:
		return len(g.chans), nil
	case HintBias, PanicAt:
		return 0, nil
	}
	return 0, fmt.Errorf("core: inject: unknown fault kind %d", int(k))
}

// Inject arms faults on an assembled GPU, before it runs. It is the
// only fault seam and is meant for tests, through nuba.WithArm. A
// Target of -1 is picked with an RNG seeded from seed and the fault's
// position alone, so the same seed always hits the same victims and
// appending a fault never re-rolls the earlier ones. Several faults may
// share a target; each takes effect. A bad target, period or kind is an
// error, never a panic.
func (g *GPU) Inject(seed uint64, faults ...Fault) error {
	if g.flt == nil && len(faults) > 0 {
		g.flt = &coreFault{}
	}
	for i, f := range faults {
		n, err := g.targets(f.Kind)
		if err != nil {
			return err
		}
		t := f.Target
		if n > 0 && t == -1 {
			t = sim.NewRNG(sim.Mix(seed ^ uint64(i+1))).Intn(n)
		}
		if n > 0 && (t < 0 || t >= n) {
			return fmt.Errorf("core: inject %s: target %d out of range [0,%d)", f.Kind, t, n)
		}
		switch f.Kind {
		case WedgeSM, StallLLC, StallNoC:
			g.flt.freezes = append(g.flt.freezes, freeze{kind: f.Kind, idx: t, from: f.At, until: f.Until})
		case SlowLLC:
			if f.Period < 1 {
				return fmt.Errorf("core: inject %s: period %d must be >= 1", f.Kind, f.Period)
			}
			g.flt.freezes = append(g.flt.freezes, freeze{kind: StallLLC, idx: t, from: f.At, period: f.Period})
		case DropDRAMReply:
			ch, left := g.chans[t], f.After
			respond := ch.Respond
			ch.Respond = func(req *sim.MemReq) {
				if left == 0 {
					left = -1 // swallowed: req never reaches its slice
					return
				}
				if left > 0 {
					left--
				}
				respond(req)
			}
		case HintBias:
			g.flt.hintBias = f.Bias
		case PanicAt:
			g.flt.panicAt = f.At
		}
	}
	return nil
}

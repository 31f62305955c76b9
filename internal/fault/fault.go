// Package fault is the deterministic fault-injection harness: a small
// vocabulary of component faults (wedged SM, stuck LLC slice or NoC
// switch, dropped DRAM reply, optimistic wake hint, scheduled panic,
// slow-but-live component) armed onto an assembled system through the
// core's test-only Inject hooks, plus a Plan mapping (config, benchmark)
// jobs to fault specs for the experiment pool's stress matrix.
//
// Everything is seeded and deterministic: a Spec with Target -1 picks
// its victim component with the spec's own xorshift RNG, so the same
// seed always wedges the same SM — every robustness claim in
// docs/ROBUSTNESS.md is provable by injecting the fault and asserting
// detection, repeatably.
//
// The package is importable only from internal/experiments and _test.go
// files (lint.policy lists it for that package alone): fault hooks must stay off
// the model hot path, nil-gated like the trace probes.
package fault

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// WedgeSM freezes one SM's Tick while it still holds live warps:
	// the classic silent hang the forward-progress watchdog must catch.
	WedgeSM Kind = iota
	// StallLLC freezes one LLC slice's arbiter with requests queued.
	StallLLC
	// SlowLLC degrades one LLC slice to one tick every Period cycles —
	// slow but live. A correct watchdog must NOT flag it (the
	// false-positive guard of the stress matrix).
	SlowLLC
	// StallNoC freezes one request crossbar with messages in flight.
	StallNoC
	// DropDRAMReply silently swallows one DRAM read reply, wedging the
	// waiting MSHR forever: the lost-reply deadlock (every wake hint
	// goes to Never while work is pending).
	DropDRAMReply
	// HintBias makes every wake hint optimistic by Bias cycles: the
	// unsound-hint fault EngineSanitize must catch.
	HintBias
	// PanicAt panics inside the cycle loop at cycle At: the
	// model-invariant blowup the experiment pool must isolate.
	PanicAt
)

// String returns the fault class name used in reports and test output.
func (k Kind) String() string {
	switch k {
	case WedgeSM:
		return "wedge-sm"
	case StallLLC:
		return "stall-llc"
	case SlowLLC:
		return "slow-llc"
	case StallNoC:
		return "stall-noc"
	case DropDRAMReply:
		return "drop-dram-reply"
	case HintBias:
		return "hint-bias"
	case PanicAt:
		return "panic"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Fault is one injectable fault. Zero fields beyond Kind select
// defaults: Target -1 (seeded pick) must be set explicitly to pin a
// component.
type Fault struct {
	Kind Kind
	// Target is the victim component index (SM, slice, crossbar or
	// channel, depending on Kind); -1 picks one with the spec's seed.
	Target int
	// At is the activation cycle (wedge, stall, slow, panic).
	At sim.Cycle
	// Until ends a StallLLC at that cycle; 0 stalls forever.
	Until sim.Cycle
	// Period is the SlowLLC tick period (cycles per tick).
	Period sim.Cycle
	// Bias is the HintBias offset (negative = optimistic).
	Bias sim.Cycle
	// After is the number of DRAM read replies delivered before
	// DropDRAMReply swallows one.
	After int64
}

// Spec is a seeded set of faults to arm on one run.
type Spec struct {
	// Seed drives every seeded target pick in Faults, independently per
	// fault index, so adding a fault never re-rolls earlier targets.
	Seed   uint64
	Faults []Fault
}

// Arm resolves seeded targets and installs every fault onto the
// assembled system. It is shaped to slot into nuba.WithArm.
func (s *Spec) Arm(g *core.GPU) error {
	for i, f := range s.Faults {
		target := f.Target
		if target < 0 {
			n := s.targetSpace(g, f.Kind)
			if n <= 0 {
				return fmt.Errorf("fault: %s has no target components", f.Kind)
			}
			rng := sim.NewRNG(sim.Mix(s.Seed ^ uint64(i+1)))
			target = rng.Intn(n)
		}
		var err error
		switch f.Kind {
		case WedgeSM:
			err = g.InjectWedgedSM(target, f.At)
		case StallLLC:
			err = g.InjectLLCStall(target, f.At, f.Until)
		case SlowLLC:
			err = g.InjectLLCSlow(target, f.At, f.Period)
		case StallNoC:
			err = g.InjectNoCStall(target, f.At)
		case DropDRAMReply:
			err = g.InjectDRAMReplyDrop(target, f.After)
		case HintBias:
			g.InjectHintBias(f.Bias)
		case PanicAt:
			g.InjectPanic(f.At)
		default:
			err = fmt.Errorf("fault: unknown kind %d", int(f.Kind))
		}
		if err != nil {
			return fmt.Errorf("fault: arm %s: %w", f.Kind, err)
		}
	}
	return nil
}

// targetSpace returns the number of candidate victim components for a
// fault class on this system.
func (s *Spec) targetSpace(g *core.GPU, k Kind) int {
	switch k {
	case WedgeSM:
		return g.NumSMs()
	case StallLLC, SlowLLC:
		return g.NumSlices()
	case StallNoC:
		return g.NumReqXbars()
	case DropDRAMReply:
		return g.NumChannels()
	default:
		return 1 // system-wide faults need no target
	}
}

// Describe renders the spec for test output and stress-matrix logs.
func (s *Spec) Describe() string {
	if len(s.Faults) == 0 {
		return "no faults"
	}
	out := ""
	for i, f := range s.Faults {
		if i > 0 {
			out += ", "
		}
		out += f.Kind.String()
	}
	return out
}

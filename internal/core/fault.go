package core

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// coreFault holds the core-level fault-injection state. The pointer on
// GPU stays nil in production runs (one nil check on the paths that
// consult it), mirroring the nil-gated trace probes. Faults are armed
// through the Inject* methods below — internal/fault and tests are the
// only callers; lint.policy's import layering keeps it that way.
type coreFault struct {
	// hintBias is added to every future wake the hint scan reports — a
	// deliberately unsound hint EngineSanitize must catch (generalizes
	// the former testHintBias field).
	hintBias sim.Cycle
	// panicAt makes step() panic at that cycle, modeling a model
	// invariant blowing up mid-run (the experiment pool must isolate
	// it). 0 disables.
	panicAt sim.Cycle
}

func (g *GPU) fault() *coreFault {
	if g.flt == nil {
		g.flt = &coreFault{}
	}
	return g.flt
}

// InjectHintBias makes every future wake hint optimistic (bias < 0) or
// late (bias > 0) by the given amount. Test-only.
func (g *GPU) InjectHintBias(bias sim.Cycle) { g.fault().hintBias = bias }

// InjectPanic schedules a panic inside the cycle loop at cycle at,
// modeling a model-invariant failure (e.g. "smcore: no free warp
// slot"). Test-only.
func (g *GPU) InjectPanic(at sim.Cycle) { g.fault().panicAt = at }

// InjectWedgedSM wedges SM idx from cycle at onward (Tick no-ops while
// work stays outstanding). Test-only.
func (g *GPU) InjectWedgedSM(idx int, at sim.Cycle) error {
	if idx < 0 || idx >= len(g.sms) {
		return fmt.Errorf("core: inject: SM %d out of range [0,%d)", idx, len(g.sms))
	}
	g.sms[idx].InjectWedge(at)
	return nil
}

// InjectLLCStall freezes LLC slice idx in [from, until) (until 0 =
// forever). Test-only.
func (g *GPU) InjectLLCStall(idx int, from, until sim.Cycle) error {
	if idx < 0 || idx >= len(g.slices) {
		return fmt.Errorf("core: inject: LLC slice %d out of range [0,%d)", idx, len(g.slices))
	}
	g.slices[idx].InjectStall(from, until)
	return nil
}

// InjectLLCSlow degrades LLC slice idx from cycle from onward to one
// tick every period cycles — slow but live; the watchdog must not flag
// it. Test-only.
func (g *GPU) InjectLLCSlow(idx int, from, period sim.Cycle) error {
	if idx < 0 || idx >= len(g.slices) {
		return fmt.Errorf("core: inject: LLC slice %d out of range [0,%d)", idx, len(g.slices))
	}
	if period < 1 {
		return fmt.Errorf("core: inject: slow period %d must be >= 1", period)
	}
	g.slices[idx].InjectSlow(from, period)
	return nil
}

// InjectNoCStall freezes request crossbar idx from cycle from onward.
// Test-only.
func (g *GPU) InjectNoCStall(idx int, from sim.Cycle) error {
	if idx < 0 || idx >= len(g.reqXbars) {
		return fmt.Errorf("core: inject: request crossbar %d out of range [0,%d)", idx, len(g.reqXbars))
	}
	g.reqXbars[idx].InjectStall(from)
	return nil
}

// InjectDRAMReplyDrop makes DRAM channel idx swallow its (after+1)-th
// read reply, wedging the waiting MSHR forever. Test-only.
func (g *GPU) InjectDRAMReplyDrop(idx int, after int64) error {
	if idx < 0 || idx >= len(g.chans) {
		return fmt.Errorf("core: inject: DRAM channel %d out of range [0,%d)", idx, len(g.chans))
	}
	g.chans[idx].InjectReplyDrop(after)
	return nil
}

// NumSMs, NumSlices, NumReqXbars and NumChannels expose component
// counts so fault plans can pick seeded targets without reaching into
// core internals.
func (g *GPU) NumSMs() int      { return len(g.sms) }
func (g *GPU) NumSlices() int   { return len(g.slices) }
func (g *GPU) NumReqXbars() int { return len(g.reqXbars) }
func (g *GPU) NumChannels() int { return len(g.chans) }

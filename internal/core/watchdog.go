package core

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// The forward-progress watchdog. A wedged component can keep the cycle
// loop spinning — its wake hint claims "next cycle" forever while its
// state never changes — and the run only dies at MaxCycles, tens of
// millions of cycles later, with no diagnosis. The watchdog reuses the
// sanitizer's per-component StateSig rows as a progress signature: if
// the signature holds still for a full window of cycles while work is
// outstanding, the run fails immediately with a structured HangReport
// naming the stuck components, their queue depths and their last wake
// hints. A second, instant check catches true deadlocks: every
// component hint at sim.Never while quiet() is false means nothing can
// ever run again (e.g. a dropped DRAM reply wedging an MSHR).
//
// The watchdog only reads the same pure signatures the sanitizer reads,
// so it cannot perturb the simulation. It is not an option: New arms it
// on every GPU, at a window worked out from the configuration.

// watchdog is the guard's state, a value field of every GPU.
type watchdog struct {
	window       sim.Cycle // fail after this many cycles without progress
	every        sim.Cycle // signature sampling interval
	nextCheck    sim.Cycle
	lastSig      uint64
	lastProgress sim.Cycle
	primed       bool
}

// watchdogWindow is the no-progress window of a configuration's runs:
// eight times the longest single latency a healthy run can sit on with
// every signature frozen, and at least 64 Ki cycles. Today that latency
// is PageFaultLatency — a lone cold fault holds the event heap, the
// walkers and every queue still until it resolves — so the window is
// 224,000 cycles at Baseline() and follows the fault penalty when a
// configuration lengthens it. A new fixed wait that freezes every
// StateSig joins the max here.
func watchdogWindow(cfg *config.Config) sim.Cycle {
	return max(8*cfg.PageFaultLatency, 64*1024)
}

// newWatchdog returns the guard for a window. Signatures are sampled
// every window/4 cycles (at least once per batch), so detection lands
// within ~1.25 windows of the actual stall.
func newWatchdog(window sim.Cycle) watchdog {
	return watchdog{window: window, every: max(window/4, batchCycles)}
}

// check runs at batch boundaries while work is outstanding. It returns
// a *HangError when the progress signature has been frozen for a full
// window, or immediately when no component will ever wake again.
func (wd *watchdog) check(g *GPU) error {
	if g.cycle < wd.nextCheck {
		return nil
	}
	wd.nextCheck = g.cycle + wd.every
	// Deadlock fast path: quiet() is false (checked by the caller) yet
	// no component has a future event — nothing can ever run again.
	if g.componentWake() == sim.Never {
		return &HangError{Report: g.CaptureHang("deadlock", 0, g.cycle)}
	}
	sig := g.progressSig()
	if !wd.primed || sig != wd.lastSig {
		wd.primed = true
		wd.lastSig = sig
		wd.lastProgress = g.cycle
		return nil
	}
	if g.cycle-wd.lastProgress >= wd.window {
		return &HangError{Report: g.CaptureHang("no-progress", wd.window, wd.lastProgress)}
	}
	return nil
}

// progressSig folds every table row's StateSig into one progress
// signature. The table has no row for pure time-driven state — the MDR
// controller's epoch clock, the migration scan and trace timers — which
// advances even while the machine is wedged and would mask a hang.
func (g *GPU) progressSig() uint64 {
	h := sim.SigSeed
	for i := range g.parts {
		h = sim.MixSig(h, g.parts[i].StateSig())
	}
	return h
}

// ComponentState is one stuck component in a HangReport.
type ComponentState struct {
	// Name identifies the component ("SM 3", "LLC slice 0", ...), using
	// the same naming as the sanitizer diagnostics.
	Name string
	// Wake is the component's claimed next wake-up cycle (sim.Never
	// means it is only waiting on external input).
	Wake sim.Cycle
	// AsleepUntil is the component's stored sleep deadline when it lies
	// beyond Wake — the signature of a lost wake-up — and 0 otherwise.
	AsleepUntil sim.Cycle
	// Detail is the component's DebugState / queue-depth summary.
	Detail string
}

// HangReport describes a detected hang: when it was declared, how long
// the machine had made no progress, and every component still holding
// work with its last wake hint and queue state.
type HangReport struct {
	// Cycle is when the watchdog declared the hang.
	Cycle sim.Cycle
	// LastProgress is the last cycle at which the progress signature
	// changed (equal to Cycle for deadlock reports).
	LastProgress sim.Cycle
	// Window is the configured no-progress window (0 for deadlock
	// reports, which fire instantly).
	Window sim.Cycle
	// Reason is "no-progress" (signature frozen for Window cycles) or
	// "deadlock" (no component will ever wake while work is pending).
	Reason string
	// Stuck lists the components still holding work in table order, at
	// most hangReportMaxPerKind of each kind ("SM", "LLC slice", ...) so
	// that the many SMs of a large GPU cannot crowd out the memory side;
	// omitted counts the rest per kind.
	Stuck   []ComponentState
	omitted []kindCount
}

// kindCount is how many pending components of one kind a report left out.
type kindCount struct {
	label string
	n     int
}

// hangReportMaxPerKind caps the report's listing per component kind; the
// remainder is summarized as a count.
const hangReportMaxPerKind = 4

// String renders the full multi-line report.
func (r *HangReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hang detected at cycle %d (%s)", r.Cycle, r.Reason)
	if r.Reason == "no-progress" {
		fmt.Fprintf(&b, ": no component state change since cycle %d (window %d)", r.LastProgress, r.Window)
	}
	b.WriteByte('\n')
	rel := func(t sim.Cycle) string {
		if t >= sim.Never {
			return "never"
		}
		return fmt.Sprintf("%+d", t-r.Cycle)
	}
	for _, c := range r.Stuck {
		fmt.Fprintf(&b, "  %-24s wake=%-8s %s", c.Name, rel(c.Wake), c.Detail)
		if c.AsleepUntil != 0 {
			fmt.Fprintf(&b, " asleep-until=%s", rel(c.AsleepUntil))
		}
		b.WriteByte('\n')
	}
	for _, k := range r.omitted {
		fmt.Fprintf(&b, "  %-24s ... and %d more pending\n", k.label, k.n)
	}
	return b.String()
}

// HangError wraps a HangReport as the run error. Error() is a single
// line naming the first stuck component; the full report is available
// via the Report field.
type HangError struct {
	Report HangReport
}

func (e *HangError) Error() string {
	first := "no pending component identified"
	if len(e.Report.Stuck) > 0 {
		c := e.Report.Stuck[0]
		first = fmt.Sprintf("first stuck: %s (%s)", c.Name, c.Detail)
	}
	if e.Report.Reason == "no-progress" {
		return fmt.Sprintf("core: watchdog: no forward progress for %d cycles at cycle %d; %s",
			e.Report.Cycle-e.Report.LastProgress, e.Report.Cycle, first)
	}
	return fmt.Sprintf("core: watchdog: deadlock at cycle %d: work pending but every wake hint is Never; %s",
		e.Report.Cycle, first)
}

// CaptureHang assembles a HangReport naming every component that still
// holds work, with its wake hint and debug summary.
func (g *GPU) CaptureHang(reason string, window sim.Cycle, lastProgress sim.Cycle) HangReport {
	r := HangReport{
		Cycle:        g.cycle,
		LastProgress: lastProgress,
		Window:       window,
		Reason:       reason,
	}
	now := g.cycle
	pending := map[string]int{} // by kind
	for i := range g.parts {
		p := &g.parts[i]
		if p.Idle() {
			continue
		}
		if pending[p.label]++; pending[p.label] <= hangReportMaxPerKind {
			c := ComponentState{Name: p.name(), Wake: p.NextWake(now), Detail: p.DebugState(now)}
			if p.sleep != nil && p.sleep.At() > c.Wake {
				c.AsleepUntil = p.sleep.At()
			}
			r.Stuck = append(r.Stuck, c)
		}
	}
	// A second walk of the table puts the summaries in table order too.
	for i := range g.parts {
		if l := g.parts[i].label; pending[l] > hangReportMaxPerKind {
			r.omitted = append(r.omitted, kindCount{l, pending[l] - hangReportMaxPerKind})
			pending[l] = 0
		}
	}
	return r
}

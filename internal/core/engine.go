package core

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Engine selects what the one cycle loop (GPU.advance) does with a
// window the wake hints claim idle: skip it (EngineHybrid, the
// default), never ask (EngineNaive, the reference the cross-engine
// tests compare against) or step through it verifying the claim
// (EngineSanitize, sanitize.go). All three produce cycle-exact,
// byte-identical reports and traces; they differ only in wall-clock
// speed.
type Engine uint8

const (
	// EngineHybrid ticks only components whose wake-up hints say they can
	// make progress and fast-forwards the clock over proven-idle gaps.
	EngineHybrid Engine = iota
	// EngineNaive ticks every component every cycle (the serial
	// reference implementation).
	EngineNaive
	// EngineSanitize steps through every hybrid-claimed idle window,
	// cross-checking each component's state signature against its wake
	// hint, and fails the run on the first unsound hint.
	EngineSanitize
)

var engineNames = [...]string{"hybrid", "naive", "sanitize"}

// String returns the engine's name, for test names and messages, and
// Engine(N) for a value that is none of the three.
func (e Engine) String() string {
	if int(e) >= len(engineNames) {
		return fmt.Sprintf("Engine(%d)", e)
	}
	return engineNames[e]
}

// SetEngine selects the cycle-loop strategy for subsequent runs; e must
// be one of the three constants (nuba.Run refuses any other). Hybrid
// obeys the components' parks (DESIGN.md §9 "Parks"); the other two
// install the GPU's park audit in every row that parks, which switches the
// parks off — naive so as to stay the reference, sanitize so as to fail
// the run (step) on a head taken before its park ended.
func (g *GPU) SetEngine(e Engine) {
	g.engine = e
	var a *sim.ParkAudit
	if e != EngineHybrid {
		a = &g.audit
	}
	for i := range g.parts {
		if p, ok := g.parts[i].component.(parker); ok {
			p.SetAudit(a)
		}
	}
}

// The kinds of component that sleep (DESIGN.md §9), and their row labels.
const kindSM, kindSlice, kindChan = 0, 1, 2

var kindLabel = [...]string{"SM", "LLC slice", "DRAM channel"}

// EngineStats counts what the cycle loop did, not what the GPU did. It
// differs between engines by design, so it stays out of metrics.Stats,
// the digest, the memo key and every report (docs/OBSERVABILITY.md).
type EngineStats struct {
	Stepped, Skipped int64 // cycles run through step / jumped over
	// Jumps counts the idle windows hybrid jumped over, LongestJump is the
	// longest of them in cycles.
	Jumps, LongestJump int64
	// FabricSkipped counts the stepped cycles whose fabric phase the fabric
	// deadline skipped (under sanitize: ran anyway, checked).
	FabricSkipped int64
	// Ran counts, by kind, the ticks run on stepped cycles, Slept the ticks
	// a sleep deadline skipped: every tick the kind's walks (walks) could
	// have run that did not run and that no fault froze (frozen).
	Ran, Slept    [3]int64
	walks, frozen [3]int64
	// jumpFrom is the cycle the last jump began at.
	jumpFrom sim.Cycle
	// Sites counts, per place a send can be refused (siteLabel), the heads
	// offered there and the offers refused: what parking a refused head
	// (DESIGN.md §9 "Parks") saves is the refusals naive counts and hybrid
	// does not.
	Sites [numSites]sim.Offers
}

// The sites of EngineStats.Sites, in the order step reaches them.
const (
	siteSMSend = iota
	siteLSU
	siteSMReqDrain
	siteReqStage1
	siteReqStage2
	siteReqEgress
	siteReplyStage1
	siteReplyStage2
	siteReplyEgress
	siteInterDrain
	siteSliceReplyDrain
	siteArbiter
	siteOutbox
	siteEnqueue
	numSites
)

var siteLabel = [numSites]string{
	"SM send", "LSU head", "SM-request drain",
	"req-xbar stage 1", "req-xbar stage 2", "req-xbar egress",
	"reply-xbar stage 1", "reply-xbar stage 2", "reply-xbar egress",
	"inter-domain drain", "slice-reply drain",
	"slice arbiter", "slice outbox", "channel enqueue",
}

// EngineStats returns the counters so far.
func (g *GPU) EngineStats() EngineStats {
	es := g.es
	for k := range es.Slept {
		es.Slept[k] = es.walks[k]*int64(g.asleep[k].Len()) - es.Ran[k] - es.frozen[k]
	}
	for _, s := range g.sms {
		es.Sites[siteSMSend].Add(s.SendOffers)
		es.Sites[siteLSU].Add(s.LSUOffers)
	}
	for m, rq := range g.reqXbars {
		rp := g.replyXbars[m]
		es.Sites[siteReqStage1].Add(rq.Stage1)
		es.Sites[siteReqStage2].Add(rq.Mid.Offers)
		es.Sites[siteReqEgress].Add(rq.Out.Offers)
		es.Sites[siteReplyStage1].Add(rp.Stage1)
		es.Sites[siteReplyStage2].Add(rp.Mid.Offers)
		es.Sites[siteReplyEgress].Add(rp.Out.Offers)
	}
	es.Sites[siteSMReqDrain] = g.smReq.Offers
	es.Sites[siteInterDrain] = g.inter.Offers
	es.Sites[siteSliceReplyDrain] = g.sliceReply.Offers
	for _, sl := range g.slices {
		es.Sites[siteArbiter].Add(sl.ArbOffers)
		es.Sites[siteOutbox].Add(sl.OutOffers)
	}
	for _, ch := range g.chans {
		es.Sites[siteEnqueue].Add(ch.Enqueues())
	}
	return es
}

// String renders the counters as the two lines nubasim -v prints after
// "engine:": what the cycle loop did, then ("offers:") the offers made and
// refused at each site that saw any.
func (es EngineStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles stepped=%d skipped=%d; ticks ran/slept, SM %d/%d, LLC slice %d/%d, DRAM channel %d/%d; fabric phase skipped on %d; idle jumps %d, longest %d cycles",
		es.Stepped, es.Skipped, es.Ran[kindSM], es.Slept[kindSM], es.Ran[kindSlice], es.Slept[kindSlice], es.Ran[kindChan], es.Slept[kindChan],
		es.FabricSkipped, es.Jumps, es.LongestJump)
	b.WriteString("\noffers: made/refused")
	for i, o := range es.Sites {
		if o.Offered > 0 {
			fmt.Fprintf(&b, ", %s %d/%d", siteLabel[i], o.Offered, o.Refused)
		}
	}
	return b.String()
}

// componentWake returns the earliest cycle at which any component could
// make progress on its own: g.cycle+1 while something is active, a future
// cycle when everything is parked on known timers (DRAM bursts, LLC
// pipelines, link arrivals, scheduler sleeps), and sim.Never when every
// component is drained or waiting on another one. A sleeper's deadline is
// the hint its last tick computed; only one that has passed — a door has
// woken the component since — sends the scan to ask it. The cheap proofs
// come first: the fabric deadline for every crossbar and link set, the
// minima of the three sets that no door has opened, and every other row;
// then one pass (kindWake) over each set whose minimum has passed. The scan
// returns as soon as one component proves the next cycle must run.
func (g *GPU) componentWake() sim.Cycle {
	now := g.cycle
	next := now + 1
	wake := g.fabric.At()
	if wake <= next {
		return next
	}
	for k := range g.asleep {
		if t := g.asleep[k].Min(); t > now {
			if t <= next {
				return next
			}
			wake = min(wake, t)
		}
	}
	for i := g.fabricEnd; i < len(g.parts); i++ {
		t := g.parts[i].NextWake(now)
		if t <= next {
			return next
		}
		wake = min(wake, t)
	}
	for k := range g.asleep {
		if g.asleep[k].Min() <= now {
			t := g.kindWake(k, now)
			if t <= next {
				return next
			}
			wake = min(wake, t)
		}
	}
	return wake
}

// kindWake returns the least wake of kind k's components, or the first
// that is the next cycle or earlier: a deadline that lies after now, or
// the hint of a component whose deadline a door has reset.
func (g *GPU) kindWake(k int, now sim.Cycle) sim.Cycle {
	w, rows := &g.asleep[k], g.parts[g.firstRow(k):]
	wake := sim.Never
	for i := range w.Len() {
		t := w.At(i)
		if t <= now {
			t = rows[i].NextWake(now)
		}
		if t <= now+1 {
			return t
		}
		wake = min(wake, t)
	}
	return wake
}

// nextWake is componentWake plus the scheduled timers that fire
// regardless of component activity: MDR epoch boundaries and decision
// applies, migration scans and trace epochs.
func (g *GPU) nextWake() sim.Cycle {
	wake := g.componentWake()
	if wake <= g.cycle+1 {
		return wake
	}
	if g.mdrCtl != nil {
		if t := g.mdrCtl.NextEvent(); t < wake {
			wake = t
		}
	}
	if g.cfg.Placement == config.Migration && g.nextMigScan < wake {
		wake = g.nextMigScan
	}
	if g.tracer != nil && g.tr.next < wake {
		wake = g.tr.next
	}
	if f := g.flt; f != nil && f.hintBias != 0 && wake != sim.Never {
		wake += f.hintBias
	}
	return wake
}

// advance moves the clock to target. It is the only cycle loop: it
// steps cycles where some component or timer can act, and what it does
// with a gap the hint scan claims idle is the whole difference between
// the engines.
//
//   - EngineNaive never asks: every cycle counts as busy and is stepped.
//   - EngineHybrid skips the gap. Stepping resumes one cycle before the
//     wake-up so the event cycle itself runs through the ordinary step,
//     with every modulo check and tick ordering identical to naive.
//   - EngineSanitize steps through the gap checking that nothing changes
//     (verifyIdleWindow), and fails the run on the first unsound hint.
//
// The scan runs before every cycle hybrid or sanitize steps: on a busy
// machine it ends at the first component due next cycle. advance returns
// the last cycle of the idle window a hybrid jump ended at target in
// (w-1), for runUntilIdle to carry the jump on; it is below target
// otherwise.
func (g *GPU) advance(target sim.Cycle) (idle sim.Cycle, err error) {
	for g.cycle < target && g.unsound == nil {
		w := g.cycle + 1
		if g.engine != EngineNaive {
			w = g.nextWake()
		}
		if w <= g.cycle+1 {
			g.step()
			continue
		}
		// Nothing can act in (cycle, end].
		end := min(w-1, target)
		if g.engine == EngineSanitize {
			if err := g.verifyIdleWindow(w, end); err != nil {
				return 0, err
			}
			continue
		}
		g.es.Jumps++
		g.es.jumpFrom = g.cycle
		g.skipTo(end)
		if w <= target {
			g.step()
		}
		idle = w - 1
	}
	return idle, g.unsound
}

// skipTo jumps the clock to end, the last jump going on to it.
func (g *GPU) skipTo(end sim.Cycle) {
	g.es.Skipped += end - g.cycle
	g.es.LongestJump = max(g.es.LongestJump, end-g.es.jumpFrom)
	g.cycle = end
}

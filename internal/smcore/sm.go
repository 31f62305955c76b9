// Package smcore models a Streaming Multiprocessor: hardware warp slots
// running kir kernels, dual greedy-then-oldest (GTO) warp schedulers, a
// register scoreboard, the per-warp coalescer, a per-SM L1 TLB and a
// write-through/write-no-allocate L1 data cache with MSHRs.
//
// The SM produces the exact stream of 128 B line transactions the paper's
// memory system sees; instruction semantics come from the kir interpreter
// while all timing (scoreboard, L1 port, TLB, MSHR and interconnect
// back-pressure) is modeled here.
package smcore

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/nuba-gpu/nuba/internal/cache"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/vm"
)

// pendingForever marks a register whose producer load has not returned.
const pendingForever = int64(1) << 62

// lineState tracks one coalesced line of a memory access through the LSU.
type lineState uint8

const (
	lineNeedTranslate lineState = iota
	lineTranslating
	lineTranslated
)

// lineReq is one coalesced 128 B line of a warp memory instruction.
type lineReq struct {
	vaddr uint64 // line-aligned virtual address
	paddr uint64
	state lineState
	// readyAt parks a translated line until the L1 TLB hit latency has
	// elapsed (zero when L1TLBLatency <= 1: the hit is same-cycle).
	readyAt sim.Cycle
}

// memAccess is a warp memory instruction in flight in the LSU. Accesses
// are recycled through SM.freeAcc: enqueueMem takes one, tickLSU returns
// it when the access leaves the LSU.
type memAccess struct {
	next     *memAccess // free-list link
	warp     int        // warp slot
	store    bool
	atomic   bool
	ro       bool
	dstReg   int8
	writable bool // the target buffer is read-write (for fault metadata)
	nextLine int
	n        int // coalesced lines in use: lines[:n]
	// walkAt is the cycle lines[nextLine] missed the L1 TLB and went to
	// the shared VM system; walked is the completion callback handed to
	// VMRequest, bound at the record's first miss rather than once per
	// miss. One callback is enough because the LSU works on
	// lines in order, so only lines[nextLine] can be mid-translation —
	// and it is safe to point into a recycled object because an access
	// with a line still translating never leaves the LSU.
	walkAt sim.Cycle
	walked func()
	// One line per lane is the most a warp instruction coalesces to.
	lines [kir.WarpSize]lineReq
}

// warpSlot is one hardware warp context.
type warpSlot struct {
	w           *kir.Warp
	valid       bool
	atBarrier   bool
	pos         uint8 // position in its scheduler's age order
	ctaSlot     int
	age         int64     // activation order: what pos ranks (sm_test.go's scan oracle orders by it)
	wakeAt      sim.Cycle // while in the scheduler's timed set: the cycle its operands are ready
	regReadyAt  [kir.MaxRegs]int64
	regPending  [kir.MaxRegs]int16 // outstanding line fills per register
	outstanding int                // total in-flight line requests (loads+stores)
}

// scheduler is one GTO warp scheduler's view of its warps: slot s belongs
// to scheduler s % SchedulersPerSM. Its live warps sit at positions
// 0..n-1 in activation (age) order and each set below is a word with one
// bit per position, so "the oldest warp that can issue" is the lowest set
// bit of a mask expression. Nothing scans warps to keep the sets current:
// SM.classify recomputes one warp's bits at each event that can change
// them. A live warp in neither ready nor timed is waiting for an event
// that will reclassify it — a load reply or a barrier release — or has
// exited and waits only for its stores to drain.
type scheduler struct {
	// greedy is the slot that issued last (-1: none yet). It is a slot,
	// not a warp: it stays put while nothing issues and across the slot
	// recycling, so a new warp activated in it inherits the preference.
	greedy int
	n      int
	ready  uint64 // operands ready; can issue (given an LSU entry, if mem)
	mem    uint64 // next instruction is a memory op
	timed  uint64 // operands ready at the warp's wakeAt: a fixed-latency scoreboard wait
	// minWake is the earliest wakeAt among timed (sim.Never when empty):
	// the cycle pick next moves warps from timed to ready.
	minWake sim.Cycle
	// slot maps a position to its warp slot. The table sits outside the
	// struct so that the words above, which Tick and NextWake read for
	// every scheduler of every SM on every stepped cycle, stay packed.
	slot *[config.MaxWarpsPerScheduler]int16
}

// ctaState tracks a resident CTA for barrier accounting and refill.
type ctaState struct {
	id      int
	live    int // warps not yet exited
	total   int
	arrived int // warps waiting at the barrier
	slots   []int
	active  bool
}

// SM is one streaming multiprocessor.
type SM struct {
	ID   int
	Part int // NUBA partition (= memory channel group)

	cfg   *config.Config
	stats *metrics.Stats
	hist  *metrics.SharingHistogram

	l1     *cache.Cache
	l1MSHR *cache.MSHRFile
	l1TLB  *vm.TLB

	launch    *kir.Launch
	next, end int // the assigned CTA ids not yet resident
	ctas      []ctaState
	ctaSlots  []int // the backing of every ctas[i].slots
	warps     []warpSlot
	freeSlots []int
	contexts  *kir.Warps // as many warp contexts as the launch can have live
	nextAge   int64
	liveWarps int
	sched     []scheduler // the warp schedulers, one ready set each

	lsu       *sim.Queue[*memAccess]
	freeAcc   *memAccess
	accLive   int // access records off freeAcc: 0 when the LSU is empty
	sendQueue *sim.Queue[*sim.MemReq]
	// reqs recycles the requests this SM creates: every one of them
	// comes back through AcceptReply, where it retires.
	reqs sim.ReqPool

	// Send injects a request into the interconnect; installed by the
	// core. It returns false on back-pressure and the SM retries.
	Send func(req *sim.MemReq, now sim.Cycle) bool
	// VMRequest asks the shared VM system (L2 TLB + page walkers) to
	// resolve vpn, invoking done when the walk completes; installed by
	// the core. It returns false on L2 TLB port or walker back-pressure.
	VMRequest func(part int, vpn uint64, writable bool, now sim.Cycle, done func()) bool
	// PageLookup consults the driver's page table for a line's physical
	// frame; installed by the core. busy reports a frame mid-migration
	// (the SM stalls until the copy window passes); ok reports whether a
	// mapping exists yet.
	PageLookup func(vpn uint64, now sim.Cycle) (ppn uint64, busy, ok bool)

	// reqSeq counts the requests this SM created; a request's ID is its
	// low 32 bits.
	reqSeq uint64

	pageShift uint // log2(cfg.PageSize)
	scratch   kir.MemInfo

	// sleep: ticking the SM before this cycle is a proven no-op. Tick
	// writes it from NextWake; the doors work arrives through
	// (StartKernel, AcceptReply, finishWalk) set it to 0 (DESIGN.md §9).
	sleep sim.Slot

	// The SM's two parks (DESIGN.md §9 "Parks"). sendPark: Send refused the
	// send queue's head and said (ParkSend) that it will until this cycle;
	// the head is not offered before it. lsuPark: the LSU's walk ended in a
	// structural stall (lsuStall says which) that cannot clear, nor any
	// access it passed over act, before this cycle — sim.Never when only a
	// door can end it; the same three doors clear it. audit switches both
	// off (SetAudit).
	sendPark, lsuPark sim.Park
	lsuStall          stall
	audit             *sim.ParkAudit
	// SendOffers counts the send-queue heads offered to Send, LSUOffers the
	// lines the LSU offered to the L1, and the refusals of each.
	SendOffers, LSUOffers sim.Offers
}

// stall says why the L1 refused a line.
type stall uint8

const (
	stallNone stall = iota
	stallPage       // page mid-migration or not yet mapped: no bound, retried next cycle
	stallMSHR       // MSHR file full: until a reply releases an entry
	stallSend       // send queue full: until its head is taken
)

// ParkSend is how the core's Send port says, with a refusal, the earliest
// cycle at which offering the same request again could succeed. A port
// that says nothing is asked again next cycle.
func (s *SM) ParkSend(until sim.Cycle) { s.sendPark.Until = until }

// Sleep is where the deadline lives; the caller gates, Tick does not.
func (s *SM) Sleep() *sim.Slot { return &s.sleep }

// lsuEntries is the number of warp memory instructions the LSU holds.
const lsuEntries = 16

// LSUOpsPerCycle is the number of line operations (TLB+L1 lookups) the
// load-store unit performs per cycle — the L1 has one 128 B port, and the
// coalescer feeds it one line per cycle.
const LSUOpsPerCycle = 1

// New returns SM id in partition part.
func New(id, part int, cfg *config.Config, stats *metrics.Stats,
	hist *metrics.SharingHistogram) *SM {
	s := &SM{
		ID:        id,
		Part:      part,
		cfg:       cfg,
		stats:     stats,
		hist:      hist,
		l1:        cache.New(cfg.L1Sets(), cfg.L1Ways, cache.WriteThrough),
		l1MSHR:    cache.NewMSHRFile(cfg.L1MSHRs),
		l1TLB:     vm.NewTLB(cfg.L1TLBEntries, config.L1TLBWays),
		contexts:  new(kir.Warps),
		warps:     make([]warpSlot, cfg.WarpsPerSM),
		sched:     make([]scheduler, cfg.SchedulersPerSM),
		lsu:       sim.NewQueue[*memAccess](lsuEntries),
		sendQueue: sim.NewQueue[*sim.MemReq](8),
	}
	slots := make([][config.MaxWarpsPerScheduler]int16, len(s.sched))
	for i := range s.sched {
		s.sched[i].greedy = -1
		s.sched[i].minWake = sim.Never
		s.sched[i].slot = &slots[i]
	}
	for p := cfg.PageSize; p > 1; p >>= 1 {
		s.pageShift++
	}
	return s
}

// LiveRequests returns how many requests the SM has created and not yet
// seen retire: zero whenever the SM and everything downstream of it have
// drained.
func (s *SM) LiveRequests() int64 { return s.reqs.Live() }

// LiveAccesses returns how many LSU access records are off the SM's free
// list: the LSU's occupancy, and zero once it has drained.
func (s *SM) LiveAccesses() int { return s.accLive }

// L1TLB exposes the TLB (for shootdowns and tests).
func (s *SM) L1TLB() *vm.TLB { return s.l1TLB }

// StartKernel assigns the contiguous CTA id block [lo, hi) (produced by
// the distributed CTA scheduler) to this SM and sizes its warp state once
// for the most the launch can have live at once: the warp contexts, the
// CTA table and the free-slot stack, which grow only for a launch that
// needs more. The SM must have drained, as the core leaves it between
// kernels; an empty block only wakes it.
func (s *SM) StartKernel(l *kir.Launch, lo, hi int) {
	s.sleep.Wake()
	s.lsuPark.Until = 0
	if lo == hi {
		return
	}
	s.launch, s.next, s.end = l, lo, hi
	wpc := l.WarpsPerCTA()
	ctas := min(s.cfg.MaxCTAsPerSM, hi-lo)
	warps := min(s.cfg.WarpsPerSM, ctas*wpc)
	// A slot takes a context when it first runs a warp of this launch: at
	// most warps slots do, since the free-slot stack hands back the slots
	// the last warps left.
	s.contexts.Fit(l, warps)
	for i := range s.warps {
		s.warps[i].w = nil
	}
	s.freeSlots = slices.Grow(s.freeSlots, max(warps-len(s.freeSlots), 0))
	s.ctas, s.ctaSlots = sim.Resize(s.ctas, ctas), sim.Resize(s.ctaSlots, ctas*wpc)
	for i := range s.ctas {
		s.ctas[i].slots = s.ctaSlots[i*wpc : i*wpc : (i+1)*wpc]
	}
	s.fillCTAs()
}

// FlushL1 invalidates the L1 (software coherence at kernel boundaries).
func (s *SM) FlushL1() { s.l1.InvalidateAll() }

// fillCTAs activates the assigned CTAs while warp slots and CTA slots
// are available.
func (s *SM) fillCTAs() {
	for s.next < s.end && s.cfg.WarpsPerSM-s.liveWarps >= s.launch.WarpsPerCTA() {
		wpc := s.launch.WarpsPerCTA()
		ctaSlot := -1
		for i := range s.ctas {
			if !s.ctas[i].active {
				ctaSlot = i
				break
			}
		}
		if ctaSlot < 0 {
			return // MaxCTAsPerSM resident
		}
		ctaID := s.next
		s.next++
		cs := ctaState{id: ctaID, live: wpc, total: wpc, active: true, slots: s.ctas[ctaSlot].slots[:0]}
		for wi := 0; wi < wpc; wi++ {
			slot := s.takeSlot()
			ws := &s.warps[slot]
			// The slot keeps its warp context across the warps it runs.
			w := ws.w
			if w == nil {
				w = s.contexts.Take()
			}
			w.Reset(s.launch, ctaID, wi)
			sc := s.schedOf(slot)
			*ws = warpSlot{
				w:       w,
				valid:   true,
				ctaSlot: ctaSlot,
				age:     s.nextAge,
				pos:     uint8(sc.n),
			}
			s.nextAge++
			sc.slot[sc.n] = int16(slot)
			sc.n++
			// A fresh warp waits on no register: ready at any cycle.
			s.classify(slot, 0)
			cs.slots = append(cs.slots, slot)
			s.liveWarps++
		}
		s.ctas[ctaSlot] = cs
	}
}

func (s *SM) takeSlot() int {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	for i := range s.warps {
		if !s.warps[i].valid {
			return i
		}
	}
	panic("smcore: no free warp slot")
}

// Idle reports whether the SM has finished all assigned work and drained
// all outstanding memory traffic.
func (s *SM) Idle() bool {
	return s.liveWarps == 0 && s.next == s.end && s.lsu.Empty() && s.sendQueue.Empty()
}

// SetAudit installs (or, with nil, removes) the park audit
// (sim.ParkAudit) on both parks.
func (s *SM) SetAudit(a *sim.ParkAudit) { s.audit = a }

// NextWake returns a conservative earliest cycle at which ticking the SM
// could change its state: now+1 while anything can make progress, a
// future cycle when progress waits only on a known timer (a scoreboard
// wait, L1 TLB hit latency), and sim.Never when progress requires an
// external event — a memory reply, a finished page walk or a kernel
// launch, all of which reclassify the warps they unblock when they arrive.
// A warp that waits for an LSU entry wakes with the LSU: an entry frees
// only in a tick the LSU scan below already asks for.
func (s *SM) NextWake(now sim.Cycle) sim.Cycle {
	wake := sim.Never
	if !s.sendQueue.Empty() {
		if s.sendPark.Until <= now+1 {
			return now + 1
		}
		wake = s.sendPark.Until // the head is parked
	}
	scan := s.lsu.Len()
	if s.lsuPark.Until > now {
		// Parked: no access can act before then, which is already the
		// earliest of the timers the scan below would find.
		wake, scan = min(wake, s.lsuPark.Until), 0
	}
	for i := 0; i < scan; i++ {
		acc := s.lsu.At(i)
		if acc.nextLine >= acc.n {
			return now + 1 // finished access awaiting removal
		}
		switch line := &acc.lines[acc.nextLine]; line.state {
		case lineTranslating:
			// Parked on the shared TLB/walker; the vm event heap holds
			// the wake-up and the callback flips the state.
		case lineTranslated:
			if line.readyAt <= now {
				return now + 1
			}
			if line.readyAt < wake {
				wake = line.readyAt
			}
		default: // lineNeedTranslate: the LSU acts next cycle
			return now + 1
		}
	}
	for i := range s.sched {
		sc := &s.sched[i]
		if s.issuable(sc) != 0 {
			return now + 1
		}
		if sc.minWake < wake {
			wake = sc.minWake
		}
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// StateSig returns a signature of the SM's observable state: live-warp
// and queue occupancy, each scheduler's ready sets, per-warp scheduling
// state and the LSU's in-flight accesses.
func (s *SM) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(s.liveWarps))
	h = sim.MixSig(h, uint64(s.end-s.next))
	h = sim.MixSig(h, uint64(s.sendQueue.Len()))
	h = sim.MixSig(h, uint64(s.nextAge))
	h = sim.MixSig(h, s.reqSeq)
	for i := range s.sched {
		sc := &s.sched[i]
		h = sim.MixSig(h, sc.ready)
		h = sim.MixSig(h, sc.mem)
		h = sim.MixSig(h, sc.timed)
		h = sim.MixSig(h, uint64(sc.minWake))
	}
	for slot := range s.warps {
		ws := &s.warps[slot]
		if !ws.valid {
			continue
		}
		h = sim.MixSig(h, uint64(slot))
		h = sim.MixSig(h, uint64(ws.outstanding))
		h = sim.MixSigBool(h, ws.atBarrier)
	}
	for i := 0; i < s.lsu.Len(); i++ {
		acc := s.lsu.At(i)
		h = sim.MixSig(h, uint64(acc.warp))
		h = sim.MixSig(h, uint64(acc.nextLine))
		for j := acc.nextLine; j < acc.n; j++ {
			h = sim.MixSig(h, uint64(acc.lines[j].state))
			h = sim.MixSig(h, uint64(acc.lines[j].readyAt))
		}
	}
	return h
}

// Tick advances the SM by one cycle: drain the send queue, run the LSU,
// then let each scheduler issue one instruction.
func (s *SM) Tick(now sim.Cycle) {
	s.drainSendQueue(now)
	s.tickLSU(now)
	for i := range s.sched {
		sc := &s.sched[i]
		if sc.ready == 0 && sc.minWake > now {
			continue // asleep: every warp waits for an event or a later cycle
		}
		if slot := s.pick(sc, now); slot >= 0 {
			s.execWarp(slot, now)
		}
	}
	s.sleep.Set(s.NextWake(now))
}

// drainSendQueue pushes pending requests into the interconnect. A refused
// head parks until the cycle the port named, if it named one.
func (s *SM) drainSendQueue(now sim.Cycle) {
	if !s.sendPark.Begin(now, s.audit) {
		return
	}
	for {
		req, ok := s.sendQueue.Peek()
		if !ok {
			return
		}
		s.SendOffers.Offered++
		if !s.Send(req, now) {
			s.SendOffers.Refused++
			s.sendPark.Refused(now)
			return
		}
		s.sendPark.Taken(now, s.audit, "SM send queue", s.ID)
		s.sendQueue.Pop()
	}
}

// schedOf returns the scheduler that owns warp slot slot.
func (s *SM) schedOf(slot int) *scheduler { return &s.sched[slot%len(s.sched)] }

// pick returns the slot of the warp scheduler sc issues at cycle now —
// the greedy slot's warp if it can issue, else the oldest that can — or
// -1. The LSU is consulted here, at pick time: a memory instruction an
// earlier scheduler issued this cycle may have taken the last entry, and
// one the LSU retired this cycle has freed it.
func (s *SM) pick(sc *scheduler, now sim.Cycle) int {
	if sc.minWake <= now {
		s.promote(sc, now)
	}
	can := s.issuable(sc)
	if can == 0 {
		return -1
	}
	if g := sc.greedy; g >= 0 && s.warps[g].valid && can&(1<<uint(s.warps[g].pos)) != 0 {
		return g
	}
	sc.greedy = int(sc.slot[bits.TrailingZeros64(can)])
	return sc.greedy
}

// issuable returns sc's warps that can issue now: the ready ones, less
// those that need an LSU entry while there is none (the LSU is looked at
// only when a ready warp needs it).
func (s *SM) issuable(sc *scheduler) uint64 {
	if sc.ready&sc.mem != 0 && s.lsu.Full() {
		return sc.ready &^ sc.mem
	}
	return sc.ready
}

// promote moves the warps whose scoreboard wait ended by cycle now from
// timed to ready.
func (s *SM) promote(sc *scheduler, now sim.Cycle) {
	sc.minWake = sim.Never
	for t := sc.timed; t != 0; t &= t - 1 {
		pos := bits.TrailingZeros64(t)
		if at := s.warps[sc.slot[pos]].wakeAt; at <= now {
			sc.timed &^= 1 << uint(pos)
			sc.ready |= 1 << uint(pos)
		} else if at < sc.minWake {
			sc.minWake = at
		}
	}
}

// classify recomputes the scheduler bits of the warp in slot as of cycle
// now. A warp's readiness changes only at the five places that call this:
// its own instruction issuing (execWarp: new PC, new scoreboard entries),
// a load, atomic or L1 hit resolving one of its registers (completeLine),
// its barrier releasing (releaseBarrier), its activation (fillCTAs) and —
// by removal rather than classification — its retirement (maybeRecycle).
func (s *SM) classify(slot int, now sim.Cycle) {
	ws := &s.warps[slot]
	if !ws.valid {
		return
	}
	sc := s.schedOf(slot)
	bit := uint64(1) << uint(ws.pos)
	sc.ready &^= bit
	sc.mem &^= bit
	sc.timed &^= bit
	if ws.atBarrier || ws.w.Exited {
		return
	}
	in := ws.w.Current()
	if in.Op.IsMem() {
		sc.mem |= bit
	}
	var until int64
	for need := in.NeedMask; need != 0; need &= need - 1 {
		if t := ws.regReadyAt[bits.TrailingZeros32(need)]; t > until {
			until = t
		}
	}
	switch {
	case until <= now:
		sc.ready |= bit
	case until < pendingForever:
		sc.timed |= bit
		ws.wakeAt = until
		if until < sc.minWake {
			sc.minWake = until
		}
	}
}

// execWarp executes one instruction of the warp in slot.
func (s *SM) execWarp(slot int, now sim.Cycle) {
	ws := &s.warps[slot]
	res := ws.w.Exec(&s.scratch)
	s.stats.Instructions++
	s.stats.ThreadInstructions += int64(bits.OnesCount32(ws.w.ActiveMask))

	switch res.Kind {
	case kir.StepCompute:
		if res.DstReg >= 0 {
			at := now + res.Latency
			if ws.regReadyAt[res.DstReg] < at {
				ws.regReadyAt[res.DstReg] = at
			}
		}
	case kir.StepMem:
		s.enqueueMem(slot, res, now)
	case kir.StepBarrier:
		s.arriveBarrier(slot, now)
	case kir.StepExit:
		s.retireWarp(slot, now)
	}
	s.classify(slot, now)
}

// enqueueMem coalesces the scratch MemInfo into unique lines and queues
// the access in the LSU.
func (s *SM) enqueueMem(slot int, res kir.StepInfo, now sim.Cycle) {
	ws := &s.warps[slot]
	m := &s.scratch
	acc := s.newAccess()
	acc.warp = slot
	acc.store = m.Store
	acc.atomic = m.Atomic
	acc.ro = m.RO
	acc.dstReg = res.DstReg
	// The target buffer's writability feeds the fault path (page
	// replication never clones writable pages).
	acc.writable = !s.launch.Kernel.Buffers[m.Buf].ReadOnly

	// Coalesce: collect distinct line addresses over active lanes.
	// Lanes usually touch few distinct lines; linear dedup is cheap.
	for l := 0; l < kir.WarpSize; l++ {
		if m.Mask&(1<<uint(l)) == 0 {
			continue
		}
		la := m.Addrs[l] &^ uint64(sim.LineSize-1)
		found := false
		for i := 0; i < acc.n; i++ {
			if acc.lines[i].vaddr == la {
				found = true
				break
			}
		}
		if !found {
			acc.lines[acc.n] = lineReq{vaddr: la}
			acc.n++
		}
	}
	if res.DstReg >= 0 {
		// The destination becomes ready only when every line returns.
		ws.regReadyAt[res.DstReg] = pendingForever
		ws.regPending[res.DstReg] += int16(acc.n)
	}
	// Outstanding work is counted here, not at L1-access time: a warp
	// slot must not recycle while the LSU or send queue still hold its
	// accesses.
	ws.outstanding += acc.n
	s.lsu.Push(acc)
}

// newAccess returns an empty access: a recycled one with everything but
// its bound callback reset (lines are overwritten as they are added). An
// empty free list means all accLive records are live: it refills from a
// slab one longer, doubling from 1 up to the lsuEntries the LSU can hold.
func (s *SM) newAccess() *memAccess {
	acc := s.freeAcc
	if acc == nil {
		n := min(s.accLive+1, lsuEntries-s.accLive)
		acc = sim.Slab(&n, &s.freeAcc, func(a *memAccess) **memAccess { return &a.next })
	} else {
		s.freeAcc = acc.next
	}
	acc.nextLine, acc.n = 0, 0
	s.accLive++
	return acc
}

// retireAccess moves the finished access at LSU position i to the free list.
func (s *SM) retireAccess(i int) {
	acc := s.lsu.RemoveAt(i)
	acc.next, s.freeAcc = s.freeAcc, acc
	s.accLive--
}

// tickLSU processes up to LSUOpsPerCycle line operations per cycle:
// translation, L1 lookup, MSHR allocation and request creation. Accesses
// whose next line is waiting on the shared TLB or a page fault are parked
// in place and younger accesses proceed past them — translation misses
// must not serialize independent warps (real GPU MMUs sustain many
// concurrent translations), only structural stalls (MSHR or send queue
// full) stop the pipeline. Such a stall parks the LSU: until the stalled
// line could be taken, or an access the walk passed over could act, the
// whole walk is a no-op and is not run.
func (s *SM) tickLSU(now sim.Cycle) {
	if !s.lsuPark.Begin(now, s.audit) {
		return
	}
	// early is the first cycle at which an access the walk passed over
	// could act by itself: the next one for a translation that is retried
	// every cycle, the end of an L1 TLB hit latency.
	early := sim.Never
	ops := 0
	for i := 0; ops < LSUOpsPerCycle && i < s.lsu.Len(); {
		acc := s.lsu.At(i)
		if acc.nextLine >= acc.n {
			s.retireAccess(i)
			continue
		}
		line := &acc.lines[acc.nextLine]
		switch line.state {
		case lineTranslating:
			i++ // parked on translation: let younger accesses proceed
		case lineNeedTranslate:
			if !s.translate(acc, line, now) {
				i++ // TLB ports saturated or page mid-migration
				early = now + 1
				continue
			}
			if line.state == lineTranslating {
				i++ // walk in flight: park
				continue
			}
			// L1 TLB hit: with a 1-cycle TLB the cache access proceeds
			// this cycle; longer L1TLBLatency parks the line.
			if lat := s.cfg.L1TLBLatency; lat > 1 {
				line.readyAt = now + lat - 1
				early = min(early, line.readyAt)
				i++
				continue
			}
			fallthrough
		case lineTranslated:
			if line.readyAt > now {
				i++ // waiting out the L1 TLB hit latency
				early = min(early, line.readyAt)
				continue
			}
			s.LSUOffers.Offered++
			if why := s.accessL1(acc, line, now); why != stallNone {
				s.LSUOffers.Refused++
				s.parkLSU(why, early, now)
				s.lsuPark.Refused(now)
				return // MSHR or send queue full: structural stall
			}
			s.lsuPark.Taken(now, s.audit, "SM LSU", s.ID)
			acc.nextLine++
			ops++
			if acc.nextLine >= acc.n {
				s.retireAccess(i)
			}
		}
	}
}

// parkLSU parks the LSU on the stall its walk just ended in: until the
// cycle the stall could clear — a reply's arrival (a door) for a full MSHR
// file; the send queue's own wake for a full send queue, which
// drainSendQueue serves earlier in the same tick — or, if sooner, until an
// access the walk passed over could act (early).
func (s *SM) parkLSU(why stall, early, now sim.Cycle) {
	until := early
	switch why {
	case stallPage:
		return
	case stallSend:
		until = min(until, s.sendPark.Until)
	}
	if until > now+1 {
		s.lsuPark.Until, s.lsuStall = until, why
	}
}

// translate resolves the line's physical address. It returns false when
// the access could make no progress this cycle: a busy page or a refusal
// by the L2 TLB ports. Such an attempt is retried and counts nothing; the
// L1 TLB counts an access, or an access and a miss, once, when it makes
// progress.
func (s *SM) translate(acc *memAccess, line *lineReq, now sim.Cycle) bool {
	vpn := line.vaddr >> s.pageShift
	if s.l1TLB.Lookup(vpn, now) {
		if !s.finishTranslate(line, vpn, now) {
			return false // page busy (migration in flight)
		}
		s.stats.TLBAccesses++
		return true
	}
	if acc.walked == nil {
		acc.walked = func() { s.finishWalk(acc) }
	}
	if !s.VMRequest(s.Part, vpn, acc.writable, now, acc.walked) {
		return false
	}
	s.stats.TLBAccesses++
	s.stats.TLBMisses++
	// Once per granted request: a refused one is retried until it is
	// granted or hits behind this SM's own walk of the page, which was.
	if s.hist != nil {
		s.hist.Touch(vpn, s.ID)
	}
	acc.walkAt = now
	line.state = lineTranslating
	return true
}

// finishWalk is acc.walked: the shared VM system resolved the page of the
// line acc is parked on. The L1 TLB entry is stamped with the cycle of the
// miss. The physical frame is resolved when the LSU next processes the
// line, so a migration that lands in between stays coherent.
func (s *SM) finishWalk(acc *memAccess) {
	s.sleep.Wake()
	s.lsuPark.Until = 0
	line := &acc.lines[acc.nextLine]
	s.l1TLB.Insert(line.vaddr>>s.pageShift, acc.walkAt)
	line.state = lineTranslated
}

// finishTranslate fills line.paddr from the driver's current mapping.
func (s *SM) finishTranslate(line *lineReq, vpn uint64, now sim.Cycle) bool {
	ppn, busy, ok := s.PageLookup(vpn, now)
	if busy {
		return false // page mid-migration: stall
	}
	if !ok {
		// Mapped concurrently via fault path; the walk callback will
		// re-mark the line. Treat as no progress.
		return false
	}
	line.paddr = ppn<<s.pageShift | (line.vaddr & (s.cfg.PageSize - 1))
	line.state = lineTranslated
	return true
}

// accessL1 performs the L1 lookup for a translated line and creates the
// downstream request on a miss. It returns why it could not complete this
// cycle, if it could not (MSHR or send queue full); a refused line has
// created nothing — no request, no request id — so a retry costs only the
// lookup.
func (s *SM) accessL1(acc *memAccess, line *lineReq, now sim.Cycle) stall {
	if line.paddr == 0 {
		vpn := line.vaddr >> s.pageShift
		if !s.finishTranslate(line, vpn, now) {
			return stallPage
		}
	}
	ws := &s.warps[acc.warp]
	if acc.store {
		// Write-through, write-no-allocate: invalidate any stale copy
		// and forward the line downstream.
		if s.sendQueue.Full() {
			return stallSend
		}
		s.l1.Access(line.paddr, true, int64(now))
		s.stats.L1Accesses++
		s.sendQueue.Push(s.newReq(acc, line, now))
		return stallNone
	}
	if acc.atomic {
		// Atomics bypass the L1 and execute at the home LLC slice.
		if s.sendQueue.Full() {
			return stallSend
		}
		s.sendQueue.Push(s.newReq(acc, line, now))
		return stallNone
	}
	// Load.
	s.stats.L1Accesses++
	if s.l1.Access(line.paddr, false, int64(now)) {
		s.stats.L1Hits++
		ws.outstanding--
		// The register becomes ready after the configured L1 hit
		// latency (1 cycle by default, the same as a returning fill).
		s.completeLine(acc.warp, acc.dstReg, now+s.cfg.L1Latency, now)
		return stallNone
	}
	la := s.l1.LineAddr(line.paddr)
	// A miss either rides behind an outstanding fill of its line or is
	// the primary, which needs an MSHR entry and must actually go out.
	merge, ok := s.l1MSHR.Admit(la)
	if !ok || (!merge && s.sendQueue.Full()) {
		s.stats.L1Accesses-- // retried: don't double count
		if !ok {
			return stallMSHR
		}
		return stallSend
	}
	s.stats.L1Misses++
	req := s.newReq(acc, line, now)
	s.l1MSHR.Allocate(la, req, now)
	if !merge {
		s.sendQueue.Push(req)
	}
	return stallNone
}

// newReq builds the network request for a line.
func (s *SM) newReq(acc *memAccess, line *lineReq, now sim.Cycle) *sim.MemReq {
	kind := sim.Load
	if acc.store {
		kind = sim.Store
	} else if acc.atomic {
		kind = sim.Atomic
	}
	dst := int8(-1)
	if !acc.store {
		dst = acc.dstReg
	}
	s.reqSeq++
	return s.reqs.Get(sim.MemReq{
		ID:           uint32(s.reqSeq),
		Kind:         kind,
		Addr:         s.l1.LineAddr(line.paddr),
		VAddr:        line.vaddr,
		Size:         sim.LineSize,
		ReadOnly:     acc.ro,
		SM:           int16(s.ID),
		Warp:         int16(acc.warp),
		DstReg:       dst,
		Channel:      -1, // decoded by Send
		ReplicaSlice: -1,
		Issue:        now,
	})
}

// completeLine credits one returned (or L1-hit) line toward the warp's
// destination register, which becomes ready at readyAt once its last line
// is in: a timed wake, never an immediate one.
func (s *SM) completeLine(slot int, dstReg int8, readyAt, now sim.Cycle) {
	ws := &s.warps[slot]
	if dstReg >= 0 {
		ws.regPending[dstReg]--
		if ws.regPending[dstReg] <= 0 {
			ws.regPending[dstReg] = 0
			ws.regReadyAt[dstReg] = readyAt
			s.classify(slot, now)
		}
	}
	s.maybeRecycle(slot)
}

// AcceptReply handles a data reply (load/atomic) or store acknowledgement
// arriving from the interconnect.
func (s *SM) AcceptReply(req *sim.MemReq, now sim.Cycle) {
	s.sleep.Wake()
	s.lsuPark.Until = 0
	s.stats.MemLatencySum += int64(now - req.Issue)
	s.stats.MemLatencyCount++
	if req.Kind == sim.Store {
		s.warps[req.Warp].outstanding--
		if s.warps[req.Warp].outstanding < 0 {
			panic(fmt.Sprintf("SM%d warp %d negative outstanding on store id=%d addr=%#x", s.ID, req.Warp, req.ID, req.Addr))
		}
		s.maybeRecycle(int(req.Warp))
		s.reqs.Put(req)
		return
	}
	s.stats.Replies++
	if req.Kind == sim.Load {
		la := s.l1.LineAddr(req.Addr)
		if entry, ok := s.l1MSHR.Release(la); ok {
			s.l1.Insert(la, false, false, int64(now))
			// Complete the primary and every merged waiter.
			s.finishLoad(entry.Primary, now)
			for wr, next := entry.Waiters, (*sim.MemReq)(nil); wr != nil; wr = next {
				next = wr.Next // finishLoad's Put rewrites it
				s.finishLoad(wr, now)
			}
			return
		}
		// No MSHR entry (e.g. replay after flush): complete just this one.
		s.finishLoad(req, now)
		return
	}
	// Atomic: completes exactly one request, no L1 fill.
	s.finishLoad(req, now)
}

// finishLoad completes one load or atomic at its warp and retires the
// request: nothing reads req after this.
func (s *SM) finishLoad(req *sim.MemReq, now sim.Cycle) {
	s.warps[req.Warp].outstanding--
	if s.warps[req.Warp].outstanding < 0 {
		panic(fmt.Sprintf("SM%d warp %d negative outstanding on load id=%d addr=%#x merged=%v", s.ID, req.Warp, req.ID, req.Addr, req.MergedBehind))
	}
	s.completeLine(int(req.Warp), req.DstReg, now+1, now)
	s.reqs.Put(req)
}

// maybeRecycle frees an exited warp's slot once its traffic drained, and
// retires its CTA when all sibling warps are gone.
func (s *SM) maybeRecycle(slot int) {
	ws := &s.warps[slot]
	if !ws.valid || !ws.w.Exited || ws.outstanding != 0 {
		return
	}
	ws.valid = false
	s.removePos(s.schedOf(slot), int(ws.pos))
	s.freeSlots = append(s.freeSlots, slot)
	cs := &s.ctas[ws.ctaSlot]
	cs.live--
	s.liveWarps--
	if cs.live == 0 {
		cs.active = false
		s.fillCTAs()
	}
}

// removePos closes the gap a retired warp leaves at position pos of sc:
// younger warps move down one position, in the slot table and in every
// mask, so bit order stays age order.
func (s *SM) removePos(sc *scheduler, pos int) {
	below := uint64(1)<<uint(pos) - 1
	squeeze := func(w uint64) uint64 { return w&below | w>>uint(pos+1)<<uint(pos) }
	sc.ready, sc.mem, sc.timed = squeeze(sc.ready), squeeze(sc.mem), squeeze(sc.timed)
	copy(sc.slot[pos:], sc.slot[pos+1:sc.n])
	sc.n--
	for p := pos; p < sc.n; p++ {
		s.warps[sc.slot[p]].pos = uint8(p)
	}
}

// arriveBarrier registers the warp at its CTA barrier and releases the
// barrier when every participating (non-exited) warp of the CTA has
// arrived.
func (s *SM) arriveBarrier(slot int, now sim.Cycle) {
	ws := &s.warps[slot]
	cs := &s.ctas[ws.ctaSlot]
	ws.atBarrier = true
	cs.arrived++
	if cs.arrived >= s.liveAtBarrierDenominator(cs) {
		s.releaseBarrier(cs, now)
	}
}

func (s *SM) releaseBarrier(cs *ctaState, now sim.Cycle) {
	for _, sl := range cs.slots {
		if s.warps[sl].valid && s.warps[sl].atBarrier {
			s.warps[sl].atBarrier = false
			s.classify(sl, now)
		}
	}
	cs.arrived = 0
}

// retireWarp marks the warp exited; the slot recycles when its memory
// traffic drains. An exiting warp may release a barrier its siblings wait
// on.
func (s *SM) retireWarp(slot int, now sim.Cycle) {
	ws := &s.warps[slot]
	cs := &s.ctas[ws.ctaSlot]
	// A warp that exits while siblings wait at a barrier no longer
	// participates: re-check release.
	if cs.arrived > 0 && cs.arrived >= s.liveAtBarrierDenominator(cs) {
		s.releaseBarrier(cs, now)
	}
	s.maybeRecycle(slot)
}

// liveAtBarrierDenominator counts warps of the CTA that still participate
// in barriers (valid and not exited).
func (s *SM) liveAtBarrierDenominator(cs *ctaState) int {
	n := 0
	for _, sl := range cs.slots {
		if s.warps[sl].valid && !s.warps[sl].w.Exited {
			n++
		}
	}
	return n
}

// DebugState summarizes live warps and queues for stall diagnosis, then
// says per scheduler what its warps wait for: how many can issue, wait for
// an LSU entry, wait out a scoreboard timer (and the earliest), wait for a
// load or atomic reply, sit at a barrier, or have exited and are draining
// stores.
func (s *SM) DebugState(sim.Cycle) string {
	live, out := 0, 0
	pc := -1
	bar, drain := make([]int, len(s.sched)), make([]int, len(s.sched))
	for i := range s.warps {
		ws := &s.warps[i]
		if !ws.valid {
			continue
		}
		live++
		out += ws.outstanding
		switch {
		case ws.w.Exited:
			drain[i%len(s.sched)]++
		case ws.atBarrier:
			bar[i%len(s.sched)]++
		}
		if !ws.w.Exited && pc < 0 {
			pc = ws.w.PC
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "live=%d outstanding=%d lsu=%d send=%d ctaQ=%d firstPC=%d",
		live, out, s.lsu.Len(), s.sendQueue.Len(), s.end-s.next, pc)
	// The parks the last tick left: what is parked and until when.
	if s.sendPark.Until != 0 {
		b.WriteString(" send-parked-until=" + sim.Until(s.sendPark.Until))
	}
	if s.lsuPark.Until != 0 {
		why := "mshr"
		if s.lsuStall == stallSend {
			why = "send"
		}
		if b.WriteString(" lsu-parked=" + why); s.lsuPark.Until != sim.Never {
			b.WriteString("@" + sim.Until(s.lsuPark.Until))
		}
	}
	for i := range s.sched {
		sc := &s.sched[i]
		can := bits.OnesCount64(s.issuable(sc))
		ready, timed := bits.OnesCount64(sc.ready), bits.OnesCount64(sc.timed)
		fmt.Fprintf(&b, " sched%d[ready=%d lsu-wait=%d timed=%d", i, can, ready-can, timed)
		if timed > 0 {
			fmt.Fprintf(&b, "(min=%d)", sc.minWake)
		}
		fmt.Fprintf(&b, " load-wait=%d barrier=%d drain=%d]", sc.n-ready-timed-bar[i]-drain[i], bar[i], drain[i])
	}
	return b.String()
}

// L1MSHRStalls returns how many line operations stalled on a full L1 MSHR
// file.
func (s *SM) L1MSHRStalls() int64 { return s.l1MSHR.StallsFull }

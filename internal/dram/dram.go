// Package dram models the HBM memory system: per-channel FR-FCFS
// controllers over banked DRAM with the Table 1 timing parameters
// (tRC/tRCD/tRP/tCL/tRAS/tFAW/tRRD/tRTP/tWTR/...). The memory clock is
// 350 MHz — one memory cycle per MemClockDiv core cycles — and each
// channel's data bus moves 64 B per memory cycle, so the baseline
// 32 channels supply ~720 GB/s, matching the paper.
//
// The controller is a faithful first-order model: one command per channel
// per memory cycle, open-page policy with FR-FCFS scheduling (row hits
// first, oldest otherwise), per-bank timing state machines, a shared data
// bus per channel, a four-activate window, and four HBM bank groups with
// long/short ACT-to-ACT (tRRD_L/S), CAS-to-CAS (tCCD_L/S) and
// write-to-read turnaround (tWTR_L/S) spacings.
package dram

import (
	"fmt"
	"math/bits"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// bank tracks the timing state of one DRAM bank in memory cycles.
type bank struct {
	rowOpen  bool
	row      uint64
	readyAct int64
	readyCAS int64
	readyPre int64
	// openedFor is the queue sequence number of the request whose
	// conflict opened the current row — its own CAS is a row miss, not a
	// hit — and 0 once a CAS has reached the bank. A number, not the
	// request's address: requests are recycled (sim.ReqPool), sequence
	// numbers are not.
	openedFor uint64

	// head and tail are the slots of the bank's oldest and youngest
	// queued requests, linked oldest first through entry.next; hit[k] is
	// the slot of its oldest request of kind k to the open row. Each is
	// none when there is no such request.
	head, tail uint16
	hit        [2]uint16
}

// none is the empty slot index; Config.Validate bounds MemQueueDepth at
// 4096, well below it.
const none = ^uint16(0)

// entry is one queued request with everything the scheduler asks about
// it, decoded once at Enqueue: the two FR-FCFS passes read entries and
// bank state only — no address hashing, no request dereference.
type entry struct {
	req   *sim.MemReq
	row   uint64
	seq   uint64 // per-channel arrival number, from 1
	next  uint16 // the bank's next younger request's slot, or none
	bank  uint8  // Config.Validate bounds BanksPerChan at 64
	group uint8
	store bool // req.Kind == sim.Store: a write burst, completes silently
}

// kind indexes bank.hit and Channel.hits: 0 for a read or atomic, 1 for a
// store — the two classes the data bus and tWTR tell apart.
func (e *entry) kind() int {
	if e.store {
		return 1
	}
	return 0
}

type completion struct {
	done int64 // memory cycle at which the burst finishes
	req  *sim.MemReq
}

// Channel is one HBM channel: a bounded request queue, BanksPerChan banks,
// a command bus (one command per memory cycle) and a 64 B/cycle data bus.
type Channel struct {
	id     int
	cfg    *config.Config
	mapper *addrmap.Mapper
	t      config.HBMTiming

	// slots holds the MemQueueDepth queue entries, free the unused slots'
	// indices; each bank links its own requests in arrival order. The
	// masks hold one bit per bank: busy, a request is queued; hits[k], a
	// request of kind k is to the open row (bank.hit[k]); cmd, the oldest
	// request is not, so it needs a PRE or an ACT.
	slots []entry
	free  []uint16
	seq   uint64
	banks []bank
	busy  uint64
	hits  [2]uint64
	cmd   uint64

	busFreeAt int64 // memory cycle the data bus frees up
	burst     int64 // data-bus cycles per 128 B transaction
	// lastActs is a ring of the four most recent ACT cycles (tFAW);
	// numActs counts ACTs ever issued, so numActs%4 is the oldest slot.
	lastActs [4]int64
	numActs  int64

	// Bank-group timing state. HBM splits each channel's banks into
	// four bank groups; back-to-back commands inside one group pay the
	// long timings (tRRD_L, tCCD_L, tWTR_L), across groups the short
	// ones (tRRD_S, tCCD_S, tWTR_S).
	numGroups    int
	lastActAt    int64 // most recent ACT (any bank); -1 before the first
	lastActGroup int
	lastCASAt    int64 // most recent CAS (any bank); -1 before the first
	lastCASGroup int
	lastWrEndAt  int64 // end of the most recent write burst; -1 before the first
	lastWrGroup  int

	completions *sim.Queue[completion]

	// Respond is invoked for every finished read (and atomic) with the
	// originating request; writes complete silently. The core wires this
	// to the owning LLC slice's fill path.
	Respond func(*sim.MemReq)
	// Reqs is where a silently completed write retires: nothing
	// downstream sees it again. The core installs the list its
	// writebacks and page copies come from; nil (a channel on its own)
	// leaves the request to the collector.
	Reqs *sim.ReqPool

	// Stats.
	Reads      int64
	Writes     int64
	RowHits    int64
	RowMisses  int64
	BusyCycles int64
	// offered counts Enqueue calls, stallFull those refused.
	offered   int64
	stallFull int64
	// groupBusy splits BusyCycles by the bank group that sourced the
	// burst (the tracing layer's bank-group-pressure probe).
	groupBusy []int64

	// sleep: ticking the channel before this *core* cycle is a proven
	// no-op. Tick writes it from NextWake; Enqueue, the one door work
	// arrives through, sets it to 0 (DESIGN.md §9).
	sleep sim.Slot
}

// Sleep is where the deadline lives; the caller gates, Tick does not.
func (c *Channel) Sleep() *sim.Slot { return &c.sleep }

// NewChannel returns channel id of the configuration.
func NewChannel(id int, cfg *config.Config, mapper *addrmap.Mapper) *Channel {
	burst := int64((sim.LineSize + cfg.MemBusBytesPerMemCycle - 1) / cfg.MemBusBytesPerMemCycle)
	if burst < 1 {
		burst = 1
	}
	groups := 4
	if cfg.BanksPerChan < groups {
		groups = 1
	}
	banks := make([]bank, cfg.BanksPerChan)
	for i := range banks {
		banks[i].head, banks[i].tail, banks[i].hit = none, none, [2]uint16{none, none}
	}
	free := make([]uint16, cfg.MemQueueDepth)
	for i := range free {
		free[i] = uint16(i)
	}
	return &Channel{
		id:          id,
		cfg:         cfg,
		mapper:      mapper,
		t:           cfg.Timing,
		slots:       make([]entry, cfg.MemQueueDepth),
		free:        free,
		banks:       banks,
		burst:       burst,
		numGroups:   groups,
		lastActAt:   -1,
		lastCASAt:   -1,
		lastWrEndAt: -1,
		groupBusy:   make([]int64, groups),
		completions: sim.NewQueue[completion](0),
	}
}

// BankGroups returns the number of bank groups modeled.
func (c *Channel) BankGroups() int { return c.numGroups }

// GroupBusyCycles returns a copy of the per-bank-group data-bus busy
// memory-cycle counters (they sum to BusyCycles).
func (c *Channel) GroupBusyCycles() []int64 {
	out := make([]int64, len(c.groupBusy))
	copy(out, c.groupBusy)
	return out
}

// groupOf returns the bank group of a bank index (consecutive split).
func (c *Channel) groupOf(bankIdx int) int {
	return bankIdx * c.numGroups / len(c.banks)
}

// actOK reports whether an ACT targeting group g satisfies the
// ACT-to-ACT spacing: tRRD_L within a bank group, tRRD_S across.
func (c *Channel) actOK(now int64, g int) bool {
	if c.lastActAt < 0 {
		return true
	}
	gap := int64(c.t.TRRDS)
	if g == c.lastActGroup {
		gap = int64(c.t.TRRDL)
	}
	return now-c.lastActAt >= gap
}

// casOK reports whether a CAS targeting group g satisfies tCCD_L/tCCD_S
// spacing and — for reads after a write burst — the tWTR_L/tWTR_S
// write-to-read turnaround.
func (c *Channel) casOK(now int64, g int, store bool) bool {
	if c.lastCASAt >= 0 {
		gap := int64(c.t.TCCDS)
		if g == c.lastCASGroup {
			gap = int64(c.t.TCCDL)
		}
		if now-c.lastCASAt < gap {
			return false
		}
	}
	if !store && c.lastWrEndAt >= 0 {
		turn := int64(c.t.TWTRS)
		if g == c.lastWrGroup {
			turn = int64(c.t.TWTRL)
		}
		if now < c.lastWrEndAt+turn {
			return false
		}
	}
	return true
}

// CanEnqueue reports whether the request queue has room.
func (c *Channel) CanEnqueue() bool { return len(c.free) > 0 }

// queued returns the number of requests in the queue.
func (c *Channel) queued() int { return len(c.slots) - len(c.free) }

// Enqueue adds a request to the channel queue, reporting acceptance. The
// bank, bank group and row are decoded here, once per request, and the
// request joins the tail of its bank's list.
func (c *Channel) Enqueue(req *sim.MemReq) bool {
	c.offered++
	if !c.CanEnqueue() {
		c.stallFull++
		return false
	}
	c.sleep.Wake()
	bi := c.mapper.Bank(req.Addr)
	c.seq++
	s := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	e := &c.slots[s]
	*e = entry{
		req:   req,
		row:   c.mapper.Row(req.Addr),
		seq:   c.seq,
		next:  none,
		bank:  uint8(bi),
		group: uint8(c.groupOf(bi)),
		store: req.Kind == sim.Store,
	}
	b := &c.banks[bi]
	bit := uint64(1) << uint(bi)
	open := b.rowOpen && b.row == e.row
	if b.head == none {
		b.head = s
		c.busy |= bit
		if !open {
			c.cmd |= bit
		}
	} else {
		c.slots[b.tail].next = s
	}
	b.tail = s
	if k := e.kind(); open && b.hit[k] == none {
		b.hit[k] = s
		c.hits[k] |= bit
	}
	return true
}

// RetryAt returns a lower bound on the core cycle at which an Enqueue
// refused at core cycle now could succeed, for a sender that step runs
// ahead of the channels (all of them but the page-copy queue). A slot frees
// only when a CAS issues, which takes a tick — this cycle's if now is on
// the memory clock, the channels ticking last — at a memory cycle on which
// the data bus can take the burst of at least one kind and tCCD has passed
// since the last CAS; the sender sees the slot the cycle after. It is a
// pure observation.
func (c *Channel) RetryAt(now sim.Cycle) sim.Cycle {
	div := sim.Cycle(c.cfg.MemClockDiv)
	m := (now + div - 1) / div
	m = max(m, c.busFreeAt-int64(max(c.t.TCL, c.t.TWL)))
	if c.lastCASAt >= 0 {
		m = max(m, c.lastCASAt+int64(min(c.t.TCCDS, c.t.TCCDL)))
	}
	return m*div + 1
}

// Enqueues returns how many requests were offered to Enqueue and how many
// it refused.
func (c *Channel) Enqueues() sim.Offers { return sim.Offers{Offered: c.offered, Refused: c.stallFull} }

// nextHit returns the first slot from s on along its bank's list holding a
// request of kind k to row, or none.
func (c *Channel) nextHit(s uint16, k int, row uint64) uint16 {
	for ; s != none; s = c.slots[s].next {
		if e := &c.slots[s]; e.row == row && e.kind() == k {
			return s
		}
	}
	return none
}

// setHit records h as bank bi's oldest open-row request of kind k.
func (c *Channel) setHit(bi int, k int, h uint16) {
	c.banks[bi].hit[k] = h
	if h == none {
		c.hits[k] &^= 1 << uint(bi)
	} else {
		c.hits[k] |= 1 << uint(bi)
	}
}

// removeHit unlinks bank bi's hit of kind k — the request a CAS just
// served — and finds the bank's next one of that kind.
func (c *Channel) removeHit(bi int, k int) {
	b := &c.banks[bi]
	s := b.hit[k]
	e := &c.slots[s]
	prev := none
	for p := b.head; p != s; p = c.slots[p].next {
		prev = p
	}
	if prev == none {
		b.head = e.next
	} else {
		c.slots[prev].next = e.next
	}
	if b.tail == s {
		b.tail = prev
	}
	c.setHit(bi, k, c.nextHit(e.next, k, b.row))
	bit := uint64(1) << uint(bi)
	switch {
	case b.head == none:
		c.busy &^= bit
		c.cmd &^= bit
	case c.slots[b.head].row != b.row:
		c.cmd |= bit
	default:
		c.cmd &^= bit
	}
	*e = entry{} // drop the request pointer
	c.free = append(c.free, s)
}

// fawOK reports whether a fourth activate within the window would violate
// tFAW at memory cycle now.
func (c *Channel) fawOK(now int64) bool {
	if c.numActs < 4 {
		return true
	}
	return now-c.lastActs[c.numActs%4] >= int64(c.t.TFAW)
}

func (c *Channel) recordAct(now int64, g int) {
	c.lastActs[c.numActs%4] = now
	c.numActs++
	c.lastActAt = now
	c.lastActGroup = g
}

// Tick advances the channel by one memory cycle, issuing at most one
// command and delivering finished bursts.
func (c *Channel) Tick(now int64) {
	// Deliver completed bursts.
	for {
		comp, ok := c.completions.Peek()
		if !ok || comp.done > now {
			break
		}
		c.completions.Pop()
		if comp.req.Kind == sim.Store {
			c.Reqs.Put(comp.req) // a write ends here
			continue
		}
		if c.Respond != nil {
			c.Respond(comp.req)
		}
	}
	if c.busy != 0 {
		c.schedule(now)
	}
	c.sleep.Set(c.NextWake(now * sim.Cycle(c.cfg.MemClockDiv)))
}

// schedule issues at most one command for the queued requests. Both
// passes pick what a scan of the whole queue in arrival order would pick,
// visiting one candidate per bank: the smallest seq among them is the
// oldest request the scan would have stopped at.
func (c *Channel) schedule(now int64) {
	// FR-FCFS pass 1: the oldest request whose row is open and whose
	// bank + data bus can take the CAS now. Whether the bus is free by
	// the time the burst would start depends only on the kind, and
	// readyCAS and tCCD/tWTR only on the bank and the kind, so a bank's
	// oldest open-row request of a kind is its only candidate of that
	// kind.
	best, bestSeq := none, ^uint64(0)
	busFree := [2]bool{c.busFreeAt <= now+int64(c.t.TCL), c.busFreeAt <= now+int64(c.t.TWL)}
	for k := range busFree {
		if !busFree[k] {
			continue
		}
		for m := c.hits[k]; m != 0; m &= m - 1 {
			b := &c.banks[bits.TrailingZeros64(m)]
			e := &c.slots[b.hit[k]]
			if e.seq < bestSeq && b.readyCAS <= now && c.casOK(now, int(e.group), e.store) {
				best, bestSeq = b.hit[k], e.seq
			}
		}
	}
	if best != none {
		e := &c.slots[best]
		b := &c.banks[e.bank]
		c.issueCAS(now, e, b, b.openedFor != e.seq)
		b.openedFor = 0
		c.removeHit(int(e.bank), e.kind())
		return
	}
	// Pass 2: issue one PRE or ACT for the oldest request of some bank,
	// preserving bank-level parallelism — considering only each bank's
	// oldest request avoids thrashing rows under younger requests. A bank
	// whose oldest request is to its open row waits for pass 1.
	bestBank, oldest := -1, ^uint64(0)
	faw := c.fawOK(now)
	for m := c.cmd; m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		b := &c.banks[bi]
		e := &c.slots[b.head]
		if e.seq > oldest {
			continue
		}
		if b.rowOpen && b.readyPre <= now ||
			!b.rowOpen && b.readyAct <= now && faw && c.actOK(now, int(e.group)) {
			bestBank, oldest = bi, e.seq
		}
	}
	if bestBank < 0 {
		return
	}
	b := &c.banks[bestBank]
	if b.rowOpen { // row conflict: precharge
		b.rowOpen = false
		b.readyAct = max64(b.readyAct, now+int64(c.t.TRP))
		c.setHit(bestBank, 0, none)
		c.setHit(bestBank, 1, none)
		return
	}
	// Closed: activate the oldest request's row, which turns the bank's
	// requests to that row into hits.
	e := &c.slots[b.head]
	b.rowOpen = true
	b.row = e.row
	b.readyCAS = now + int64(c.t.TRCD)
	b.readyPre = now + int64(c.t.TRAS)
	b.readyAct = now + int64(c.t.TRC)
	b.openedFor = e.seq
	c.recordAct(now, int(e.group))
	c.RowMisses++
	c.cmd &^= 1 << uint(bestBank)
	c.setHit(bestBank, 0, c.nextHit(b.head, 0, b.row))
	c.setHit(bestBank, 1, c.nextHit(b.head, 1, b.row))
}

func (c *Channel) issueCAS(now int64, e *entry, b *bank, rowHit bool) {
	g := int(e.group)
	start := now + int64(c.t.TCL)
	if e.store {
		start = now + int64(c.t.TWL)
	}
	end := start + c.burst
	c.busFreeAt = end
	c.BusyCycles += c.burst
	c.groupBusy[g] += c.burst
	c.lastCASAt = now
	c.lastCASGroup = g
	if rowHit {
		c.RowHits++
	}
	if e.store {
		c.Writes++
		c.lastWrEndAt = end
		c.lastWrGroup = g
		b.readyPre = max64(b.readyPre, end+int64(c.t.TWR))
	} else {
		c.Reads++
		b.readyPre = max64(b.readyPre, now+int64(c.t.TRTP))
	}
	c.completions.Push(completion{done: end, req: e.req})
}

// Idle reports whether no request or in-flight burst remains.
func (c *Channel) Idle() bool {
	return c.busy == 0 && c.completions.Empty()
}

// NextWake is the channel's wake hint in core cycles: the first
// memory-clock boundary after core cycle now at which its next event
// (nextEvent) can happen, sim.Never when it holds no work. It is the one
// place the hint crosses from the memory clock to the core clock.
func (c *Channel) NextWake(now sim.Cycle) sim.Cycle {
	m, ok := c.nextEvent()
	if !ok {
		return sim.Never
	}
	div := sim.Cycle(c.cfg.MemClockDiv)
	return max(m*div, (now/div+1)*div)
}

// nextEvent returns the earliest memory cycle at which the channel could
// make progress, and whether any work remains. With requests queued the
// controller may issue a command every memory cycle (0, i.e. immediately);
// otherwise only the head burst completion remains. Completions are
// pushed in data-bus order (busFreeAt serializes bursts), so the head's
// done cycle is the minimum in flight.
func (c *Channel) nextEvent() (int64, bool) {
	if c.busy != 0 {
		return 0, true
	}
	if comp, ok := c.completions.Peek(); ok {
		return comp.done, true
	}
	return 0, false
}

// StateSig returns a signature of the channel's observable state: queue
// depth, per-bank row and timing state, the bus and bank-group timing
// trackers and every pending burst completion. The traffic counters are
// accounting and excluded.
func (c *Channel) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(c.queued()))
	for i := range c.banks {
		b := &c.banks[i]
		h = sim.MixSigBool(h, b.rowOpen)
		h = sim.MixSig(h, b.row)
		h = sim.MixSig(h, uint64(b.readyAct))
		h = sim.MixSig(h, uint64(b.readyCAS))
		h = sim.MixSig(h, uint64(b.readyPre))
	}
	h = sim.MixSig(h, uint64(c.busFreeAt))
	h = sim.MixSig(h, uint64(c.lastActAt))
	h = sim.MixSig(h, uint64(c.lastCASAt))
	h = sim.MixSig(h, uint64(c.lastWrEndAt))
	for i := 0; i < c.completions.Len(); i++ {
		h = sim.MixSig(h, uint64(c.completions.At(i).done))
	}
	return h
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// DebugState summarizes controller state for stall diagnosis, its
// timings relative to the memory cycle of core cycle now.
func (c *Channel) DebugState(now sim.Cycle) string {
	now /= sim.Cycle(c.cfg.MemClockDiv)
	s := fmt.Sprintf("q=%d busFree=%+d comps=%d", c.queued(), c.busFreeAt-now, c.completions.Len())
	var e *entry // the oldest request: the oldest of the banks' oldest
	for m := c.busy; m != 0; m &= m - 1 {
		if h := &c.slots[c.banks[bits.TrailingZeros64(m)].head]; e == nil || h.seq < e.seq {
			e = h
		}
	}
	if e != nil {
		b := &c.banks[e.bank]
		s += fmt.Sprintf(" head={%v addr=%#x bank=%d grp=%d} bank={open=%v row=%d rdyAct=%+d rdyCAS=%+d rdyPre=%+d} lastAct=%+d",
			e.req.Kind, e.req.Addr, e.bank, e.group,
			b.rowOpen, b.row, b.readyAct-now, b.readyCAS-now, b.readyPre-now, c.lastActAt-now)
	}
	return s
}

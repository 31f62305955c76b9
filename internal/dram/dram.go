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
}

// entry is one queued request with everything the scheduler asks about
// it, decoded once at Enqueue: the two FR-FCFS passes read entries and
// bank state only — no address hashing, no request dereference.
type entry struct {
	req   *sim.MemReq
	row   uint64
	seq   uint64 // per-channel arrival number, from 1
	bank  uint8  // Config.Validate bounds BanksPerChan at 64
	group uint8
	store bool // req.Kind == sim.Store: a write burst, completes silently
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

	// queue holds the pending requests oldest first, in a flat slice of
	// capacity MemQueueDepth: scans are a range loop and a removal is
	// one copy over at most that many small entries.
	queue    []entry
	seq      uint64
	banks    []bank
	allBanks uint64 // one bit per bank: pass 2 has seen them all

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

	// sleepUntil: ticking the channel before this *core* cycle is a
	// proven no-op. Tick writes it from NextEvent; Enqueue, the one door
	// work arrives through, clears it (DESIGN.md §9).
	sleepUntil sim.Cycle
}

// SleepUntil is where the deadline lives; the caller gates, Tick does not.
func (c *Channel) SleepUntil() *sim.Cycle { return &c.sleepUntil }

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
	return &Channel{
		id:          id,
		cfg:         cfg,
		mapper:      mapper,
		t:           cfg.Timing,
		queue:       make([]entry, 0, cfg.MemQueueDepth),
		banks:       make([]bank, cfg.BanksPerChan),
		allBanks:    1<<uint(cfg.BanksPerChan) - 1,
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
func (c *Channel) CanEnqueue() bool { return len(c.queue) < cap(c.queue) }

// Enqueue adds a request to the channel queue, reporting acceptance. The
// bank, bank group and row are decoded here, once per request.
func (c *Channel) Enqueue(req *sim.MemReq) bool {
	c.offered++
	if !c.CanEnqueue() {
		c.stallFull++
		return false
	}
	c.sleepUntil = 0
	bi := c.mapper.Bank(req.Addr)
	c.seq++
	c.queue = append(c.queue, entry{
		req:   req,
		row:   c.mapper.Row(req.Addr),
		seq:   c.seq,
		bank:  uint8(bi),
		group: uint8(c.groupOf(bi)),
		store: req.Kind == sim.Store,
	})
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

// remove drops entry i, keeping the rest in arrival order.
func (c *Channel) remove(i int) {
	n := len(c.queue) - 1
	copy(c.queue[i:], c.queue[i+1:])
	c.queue[n] = entry{} // drop the request pointer
	c.queue = c.queue[:n]
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
	if len(c.queue) > 0 {
		c.schedule(now)
	}
	c.sleepUntil = sim.Never
	if m, ok := c.NextEvent(); ok {
		c.sleepUntil = m * sim.Cycle(c.cfg.MemClockDiv)
	}
}

// schedule issues at most one command for the queued requests.
func (c *Channel) schedule(now int64) {
	// FR-FCFS pass 1: the first request whose row is open and whose
	// bank + data bus can take the CAS now. Whether the bus is free by
	// the time the burst would start depends only on the kind, so it is
	// decided here, once; with the bus taken for both kinds no CAS can
	// issue and the scan is skipped.
	rdBus := c.busFreeAt <= now+int64(c.t.TCL)
	wrBus := c.busFreeAt <= now+int64(c.t.TWL)
	if rdBus || wrBus {
		for i := range c.queue {
			e := &c.queue[i]
			b := &c.banks[e.bank]
			if !b.rowOpen || b.row != e.row || b.readyCAS > now {
				continue
			}
			if e.store {
				if !wrBus {
					continue
				}
			} else if !rdBus {
				continue
			}
			if !c.casOK(now, int(e.group), e.store) {
				continue
			}
			c.issueCAS(now, e, b, b.openedFor != e.seq)
			b.openedFor = 0
			c.remove(i)
			return
		}
	}
	// Pass 2: issue one PRE or ACT for the oldest request of some bank,
	// preserving bank-level parallelism — considering only each bank's
	// oldest request avoids thrashing rows under younger requests. Once
	// every bank has shown its oldest request the rest cannot matter.
	var seen uint64
	for i := range c.queue {
		e := &c.queue[i]
		bit := uint64(1) << e.bank
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		b := &c.banks[e.bank]
		switch {
		case b.rowOpen && b.row == e.row:
			// Waiting on tRCD or the data bus; pass 1 issues the CAS
			// when it becomes legal. No command for this bank.
		case b.rowOpen: // row conflict: precharge
			if b.readyPre <= now {
				b.rowOpen = false
				b.readyAct = max64(b.readyAct, now+int64(c.t.TRP))
				return
			}
		default: // closed: activate
			if b.readyAct <= now && c.actOK(now, int(e.group)) && c.fawOK(now) {
				b.rowOpen = true
				b.row = e.row
				b.readyCAS = now + int64(c.t.TRCD)
				b.readyPre = now + int64(c.t.TRAS)
				b.readyAct = now + int64(c.t.TRC)
				b.openedFor = e.seq
				c.recordAct(now, int(e.group))
				c.RowMisses++
				return
			}
		}
		if seen == c.allBanks {
			return
		}
	}
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

// Pending reports whether any request or in-flight burst remains.
func (c *Channel) Pending() bool {
	return len(c.queue) > 0 || !c.completions.Empty()
}

// NextEvent returns the earliest memory cycle at which the channel could
// make progress, and whether any work remains. With requests queued the
// controller may issue a command every memory cycle (0, i.e. immediately);
// otherwise only the head burst completion remains. Completions are
// pushed in data-bus order (busFreeAt serializes bursts), so the head's
// done cycle is the minimum in flight.
func (c *Channel) NextEvent() (int64, bool) {
	if len(c.queue) > 0 {
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
	h := sim.MixSig(sim.SigSeed, uint64(len(c.queue)))
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

// DebugState summarizes controller state for stall diagnosis.
func (c *Channel) DebugState(now int64) string {
	s := fmt.Sprintf("q=%d busFree=%+d comps=%d", len(c.queue), c.busFreeAt-now, c.completions.Len())
	if len(c.queue) > 0 {
		e := &c.queue[0]
		b := &c.banks[e.bank]
		s += fmt.Sprintf(" head={%v addr=%#x bank=%d grp=%d} bank={open=%v row=%d rdyAct=%+d rdyCAS=%+d rdyPre=%+d} lastAct=%+d",
			e.req.Kind, e.req.Addr, e.bank, e.group,
			b.rowOpen, b.row, b.readyAct-now, b.readyCAS-now, b.readyPre-now, c.lastActAt-now)
	}
	return s
}

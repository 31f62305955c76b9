package dram

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// The reference scheduler: the channel as it stood before the queue held
// decoded entries — a ring of request pointers, both FR-FCFS passes
// re-deriving bank and row from the address through the mapper every
// memory cycle, the opener of a row remembered by pointer. It is kept,
// verbatim apart from the ref prefix and the removed fault hook, as the
// specification scheduler_test.go holds Channel to: same command, same
// request, same memory cycle.

// refBank tracks the timing state of one DRAM refBank in memory cycles.
type refBank struct {
	rowOpen  bool
	row      uint64
	readyAct int64
	readyCAS int64
	readyPre int64
	// openedFor marks the request whose conflict opened the current row;
	// its own CAS is a row miss, not a hit.
	openedFor *sim.MemReq
}

type refCompletion struct {
	done int64 // memory cycle at which the burst finishes
	req  *sim.MemReq
}

// refChannel is one HBM channel: a bounded request queue, BanksPerChan banks,
// a command bus (one command per memory cycle) and a 64 B/cycle data bus.
type refChannel struct {
	id     int
	cfg    *config.Config
	mapper *addrmap.Mapper
	t      config.HBMTiming

	queue *sim.Queue[*sim.MemReq]
	banks []refBank

	busFreeAt int64 // memory cycle the data bus frees up
	burst     int64 // data-bus cycles per 128 B transaction
	lastActs  []int64

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

	completions *sim.Queue[refCompletion]

	// Respond is invoked for every finished read (and atomic) with the
	// originating request; writes complete silently. The core wires this
	// to the owning LLC slice's fill path.
	Respond func(*sim.MemReq)

	// Stats.
	Reads      int64
	Writes     int64
	RowHits    int64
	RowMisses  int64
	BusyCycles int64
	stallFull  int64
	// groupBusy splits BusyCycles by the bank group that sourced the
	// burst (the tracing layer's bank-group-pressure probe).
	groupBusy []int64
}

// newRefChannel returns channel id of the configuration.
func newRefChannel(id int, cfg *config.Config, mapper *addrmap.Mapper) *refChannel {
	burst := int64((sim.LineSize + cfg.MemBusBytesPerMemCycle - 1) / cfg.MemBusBytesPerMemCycle)
	if burst < 1 {
		burst = 1
	}
	groups := 4
	if cfg.BanksPerChan < groups {
		groups = 1
	}
	return &refChannel{
		id:          id,
		cfg:         cfg,
		mapper:      mapper,
		t:           cfg.Timing,
		queue:       sim.NewQueue[*sim.MemReq](cfg.MemQueueDepth),
		banks:       make([]refBank, cfg.BanksPerChan),
		burst:       burst,
		lastActs:    make([]int64, 0, 4),
		numGroups:   groups,
		lastActAt:   -1,
		lastCASAt:   -1,
		lastWrEndAt: -1,
		groupBusy:   make([]int64, groups),
		completions: sim.NewQueue[refCompletion](0),
	}
}

// groupOf returns the bank group of a bank index (consecutive split).
func (c *refChannel) groupOf(bankIdx int) int {
	return bankIdx * c.numGroups / len(c.banks)
}

// actOK reports whether an ACT targeting group g satisfies the
// ACT-to-ACT spacing: tRRD_L within a bank group, tRRD_S across.
func (c *refChannel) actOK(now int64, g int) bool {
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
func (c *refChannel) casOK(now int64, g int, req *sim.MemReq) bool {
	if c.lastCASAt >= 0 {
		gap := int64(c.t.TCCDS)
		if g == c.lastCASGroup {
			gap = int64(c.t.TCCDL)
		}
		if now-c.lastCASAt < gap {
			return false
		}
	}
	if req.Kind != sim.Store && c.lastWrEndAt >= 0 {
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
func (c *refChannel) CanEnqueue() bool { return !c.queue.Full() }

// Enqueue adds a request to the channel queue, reporting acceptance.
func (c *refChannel) Enqueue(req *sim.MemReq) bool {
	if !c.queue.Push(req) {
		c.stallFull++
		return false
	}
	return true
}

// faw reports whether a fourth activate within the window would violate
// tFAW at memory cycle now.
func (c *refChannel) fawOK(now int64) bool {
	if len(c.lastActs) < 4 {
		return true
	}
	return now-c.lastActs[len(c.lastActs)-4] >= int64(c.t.TFAW)
}

func (c *refChannel) recordAct(now int64, g int) {
	c.lastActs = append(c.lastActs, now)
	if len(c.lastActs) > 8 {
		c.lastActs = c.lastActs[len(c.lastActs)-4:]
	}
	c.lastActAt = now
	c.lastActGroup = g
}

// Tick advances the channel by one memory cycle, issuing at most one
// command and delivering finished bursts.
func (c *refChannel) Tick(now int64) {
	// Deliver completed bursts.
	for {
		comp, ok := c.completions.Peek()
		if !ok || comp.done > now {
			break
		}
		c.completions.Pop()
		if comp.req.Kind != sim.Store && c.Respond != nil {
			c.Respond(comp.req)
		}
	}
	if c.queue.Empty() {
		return
	}

	// FR-FCFS pass 1: the first request whose row is open and whose
	// bank + data bus can take the CAS now.
	n := c.queue.Len()
	for i := 0; i < n; i++ {
		req := c.queue.At(i)
		bi := c.mapper.Bank(req.Addr)
		b := &c.banks[bi]
		if b.rowOpen && b.row == c.mapper.Row(req.Addr) && b.readyCAS <= now &&
			c.busFreeAt <= c.casDataStart(now, req) && c.casOK(now, c.groupOf(bi), req) {
			c.issueCAS(now, req, b, c.groupOf(bi), b.openedFor != req)
			b.openedFor = nil
			c.queue.RemoveAt(i)
			return
		}
	}
	// Pass 2: issue one PRE or ACT for the oldest request of some bank,
	// preserving bank-level parallelism — considering only each bank's
	// oldest request avoids thrashing rows under younger requests.
	var seen uint64
	for i := 0; i < n; i++ {
		req := c.queue.At(i)
		bi := c.mapper.Bank(req.Addr)
		if seen&(1<<uint(bi)) != 0 {
			continue
		}
		seen |= 1 << uint(bi)
		b := &c.banks[bi]
		row := c.mapper.Row(req.Addr)
		switch {
		case b.rowOpen && b.row == row:
			// Waiting on tRCD or the data bus; pass 1 issues the CAS
			// when it becomes legal. No command for this bank.
		case b.rowOpen: // row conflict: precharge
			if b.readyPre <= now {
				b.rowOpen = false
				b.readyAct = max64(b.readyAct, now+int64(c.t.TRP))
				return
			}
		default: // closed: activate
			if b.readyAct <= now && c.actOK(now, c.groupOf(bi)) && c.fawOK(now) {
				b.rowOpen = true
				b.row = row
				b.readyCAS = now + int64(c.t.TRCD)
				b.readyPre = now + int64(c.t.TRAS)
				b.readyAct = now + int64(c.t.TRC)
				b.openedFor = req
				c.recordAct(now, c.groupOf(bi))
				c.RowMisses++
				return
			}
		}
	}
}

// casDataStart returns the memory cycle the data burst would start if the
// CAS issued at now.
func (c *refChannel) casDataStart(now int64, req *sim.MemReq) int64 {
	if req.Kind == sim.Store {
		return now + int64(c.t.TWL)
	}
	return now + int64(c.t.TCL)
}

func (c *refChannel) issueCAS(now int64, req *sim.MemReq, b *refBank, g int, rowHit bool) {
	start := c.casDataStart(now, req)
	end := start + c.burst
	c.busFreeAt = end
	c.BusyCycles += c.burst
	c.groupBusy[g] += c.burst
	c.lastCASAt = now
	c.lastCASGroup = g
	if rowHit {
		c.RowHits++
	}
	if req.Kind == sim.Store {
		c.Writes++
		c.lastWrEndAt = end
		c.lastWrGroup = g
		b.readyPre = max64(b.readyPre, end+int64(c.t.TWR))
	} else {
		c.Reads++
		b.readyPre = max64(b.readyPre, now+int64(c.t.TRTP))
	}
	c.completions.Push(refCompletion{done: end, req: req})
}

// Pending reports whether any request or in-flight burst remains.
func (c *refChannel) Pending() bool {
	return !c.queue.Empty() || !c.completions.Empty()
}

// NextEvent returns the earliest memory cycle at which the channel could
// make progress, and whether any work remains. With requests queued the
// controller may issue a command every memory cycle (0, i.e. immediately);
// otherwise only the head burst refCompletion remains. Completions are
// pushed in data-bus order (busFreeAt serializes bursts), so the head's
// done cycle is the minimum in flight.
func (c *refChannel) NextEvent() (int64, bool) {
	if !c.queue.Empty() {
		return 0, true
	}
	if comp, ok := c.completions.Peek(); ok {
		return comp.done, true
	}
	return 0, false
}

// StateSig returns a signature of the channel's observable state: queue
// depth, per-bank row and timing state, the bus and bank-group timing
// trackers and every pending burst refCompletion. The traffic counters are
// accounting and excluded.
func (c *refChannel) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(c.queue.Len()))
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

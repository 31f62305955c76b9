// Package llc implements the NUBA LLC slice microarchitecture of Figure 5:
// a Local Memory Request (LMR) queue fed by the partition's point-to-point
// links, a Remote Memory Request (RMR) queue fed by the inter-partition
// NoC, a round-robin arbiter that issues one request per cycle into the
// tag/data pipeline, an MSHR file, and the attachment to the partition's
// memory controller. The same slice model (with different wiring) serves
// the memory-side and SM-side UBA baselines.
//
// Replication (Section 5) reuses the slice unchanged: a request for a
// remote home line that MDR chose to replicate arrives with ReplicaSlice
// set to this slice; a hit serves it locally, a miss forwards it to the
// home slice over the NoC and the returning line is installed as a
// replica.
package llc

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/cache"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// outcomeKind classifies what happens when a request leaves the tag
// pipeline.
type outcomeKind uint8

const (
	outReply    outcomeKind = iota // data ready: reply toward the SM
	outToMem                       // LLC miss: issue to the memory controller
	outForward                     // replica miss: forward to the home slice
	outStoreAck                    // store committed at the LLC
)

// An outcome is what leaves the tag pipeline: what to do with which
// request. The outbox holds outcomes due on the cycle they were pushed.
type outcome struct {
	kind outcomeKind
	req  *sim.MemReq
}

// A completion is an outcome in the tag pipeline, due at ready.
type completion struct {
	ready sim.Cycle
	outcome
}

// Slice is one LLC slice.
type Slice struct {
	ID   int
	Part int

	cfg   *config.Config
	stats *metrics.Stats

	tags *cache.Cache
	mshr *cache.MSHRFile

	lmr *sim.Queue[*sim.MemReq]
	rmr *sim.Queue[*sim.MemReq]
	// rrNextRemote implements the Figure 5 round-robin arbiter between
	// the LMR and RMR queues.
	rrNextRemote bool

	pipe   *sim.Queue[completion]
	outbox *sim.Queue[outcome] // outcomes awaiting downstream space

	// A draining flush: flushAt is the tag array's writeback cursor
	// (cache.NextWriteback), -1 when no flush drains, and held the
	// writeback made from it that awaits the port, nil until the next is
	// made. Its writebacks go ahead of the outbox, one at a time.
	flushAt int
	held    *sim.MemReq

	// Wiring installed by the core.
	//
	// SendReply carries data (or a replica-path reply) toward the SM or
	// the replica slice; SendMiss issues a fill or writeback to the
	// memory controller; SendForward routes a replica miss to the home
	// slice over the NoC; StoreDone signals a committed store so the SM
	// can retire it (modeled without wire traffic, see DESIGN.md).
	SendReply   func(req *sim.MemReq, now sim.Cycle) bool
	SendMiss    func(req *sim.MemReq, now sim.Cycle) bool
	SendForward func(req *sim.MemReq, now sim.Cycle) bool
	StoreDone   func(req *sim.MemReq, now sim.Cycle)
	// Reqs is the list the slice's writebacks are drawn from and the
	// requests that end in the slice (invalidations, absorbed
	// writebacks) retire to. Installed by the core; nil (a slice on its
	// own) allocates and drops.
	Reqs *sim.ReqPool

	// Invalidations counts coherence invalidations applied (SM-side UBA).
	Invalidations int64

	// sleep: ticking the slice before this cycle is a proven no-op. Tick
	// writes it from NextWake; the doors work arrives through (Enqueue*,
	// Accept*Fill, Flush) set it to 0 (DESIGN.md §9).
	sleep sim.Slot

	// The slice's two parks (DESIGN.md §9 "Parks"). out: a Send* port
	// refused the outbox's head and said (ParkOutbox) that it will until
	// this cycle; the head is not offered before it. arb: the arbiter's pick
	// was refused by a full MSHR file, which only a fill can change and a
	// new arrival can route around — parked until sim.Never, and the five
	// doors clear it. audit switches both off (SetAudit).
	out, arb sim.Park
	audit    *sim.ParkAudit
	// ArbOffers counts the requests the arbiter offered to the tag pipeline,
	// OutOffers the completions deliver offered downstream, and the refusals
	// of each.
	ArbOffers, OutOffers sim.Offers
}

// ParkOutbox is how the core's Send* ports say, with a refusal, the
// earliest cycle at which offering the same completion again could
// succeed. A port that says nothing is asked again next cycle.
func (s *Slice) ParkOutbox(until sim.Cycle) { s.out.Until = until }

// Sleep is where the deadline lives; the caller gates, Tick does not.
func (s *Slice) Sleep() *sim.Slot { return &s.sleep }

// New returns slice id in partition part.
func New(id, part int, cfg *config.Config, stats *metrics.Stats) *Slice {
	sets := cfg.LLCSets()
	return &Slice{
		ID:    id,
		Part:  part,
		cfg:   cfg,
		stats: stats,
		tags:  cache.New(sets, cfg.LLCWays, cache.WriteBack),
		mshr:  cache.NewMSHRFile(cfg.LLCMSHRs),
		// The LMR/RMR queues are elastic: a bounded queue here would let
		// a blocked request stall replies sharing the same physical
		// network and deadlock the protocol. Real crossbars avoid that
		// with virtual channels and credits; the elastic queue models
		// the same guarantee (requests always sink at the slice) while
		// the MSHR file still bounds the misses a slice can have in
		// flight, so queueing delay under congestion is preserved.
		lmr:     sim.NewQueue[*sim.MemReq](0),
		rmr:     sim.NewQueue[*sim.MemReq](0),
		pipe:    sim.NewQueue[completion](0),
		outbox:  sim.NewQueue[outcome](0),
		flushAt: -1,
	}
}

// Tags exposes the tag array (flushes, tests, occupancy probes).
func (s *Slice) Tags() *cache.Cache { return s.tags }

// QueueDepths returns the instantaneous LMR and RMR queue lengths — the
// Figure 5 queue-occupancy probe the tracing layer samples at epoch
// boundaries.
func (s *Slice) QueueDepths() (lmr, rmr int) { return s.lmr.Len(), s.rmr.Len() }

// EnqueueLocal offers a request to the LMR queue.
func (s *Slice) EnqueueLocal(req *sim.MemReq) bool { s.wake(); return s.lmr.Push(req) }

// EnqueueRemote offers a request to the RMR queue.
func (s *Slice) EnqueueRemote(req *sim.MemReq) bool { s.wake(); return s.rmr.Push(req) }

// wake is what every door does: end the sleep and the arbiter's park.
func (s *Slice) wake() { s.sleep.Wake(); s.arb.Until = 0 }

// Idle reports whether the slice holds no work.
func (s *Slice) Idle() bool {
	return s.lmr.Empty() && s.rmr.Empty() && s.pipe.Empty() &&
		s.outbox.Empty() && s.flushAt < 0 && s.mshr.Len() == 0
}

// SetAudit installs (or, with nil, removes) the park audit
// (sim.ParkAudit) on both parks.
func (s *Slice) SetAudit(a *sim.ParkAudit) { s.audit = a }

// NextWake returns the earliest cycle at which the slice could make
// progress on its own: the next cycle while requests are queued or
// a flush or the outbox awaits delivery, the pipeline head's retirement
// otherwise.
// sim.Never means the slice is drained or only waiting on external fills
// (MSHR entries), which re-activate it through AcceptFill.
func (s *Slice) NextWake(now sim.Cycle) sim.Cycle {
	if s.arb.Until == 0 && (!s.lmr.Empty() || !s.rmr.Empty()) {
		return now + 1
	}
	wake := sim.Never
	if s.flushAt >= 0 || !s.outbox.Empty() {
		wake = s.out.Until // 0 unless the head is parked
	}
	if c, ok := s.pipe.Peek(); ok {
		// pipe is FIFO with a fixed tag latency, so the head's ready
		// cycle is the minimum over the whole pipeline.
		wake = min(wake, c.ready)
	}
	return max(wake, now+1)
}

// StateSig returns a signature of the slice's observable state: queue
// depths, the round-robin arbiter position, every in-flight pipeline
// completion (ready cycle and kind), every outbox kind, a draining flush's
// cursor and held writeback and the outstanding MSHR count. Counters are
// excluded.
func (s *Slice) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(s.lmr.Len()))
	h = sim.MixSig(h, uint64(s.rmr.Len()))
	h = sim.MixSigBool(h, s.rrNextRemote)
	for i := 0; i < s.pipe.Len(); i++ {
		c := s.pipe.At(i)
		h = sim.MixSig(h, uint64(c.ready))
		h = sim.MixSig(h, uint64(c.kind))
	}
	for i := 0; i < s.outbox.Len(); i++ {
		h = sim.MixSig(h, uint64(s.outbox.At(i).kind))
	}
	h = sim.MixSig(h, uint64(s.flushAt))
	h = sim.MixSigBool(h, s.held != nil)
	h = sim.MixSig(h, uint64(s.mshr.Len()))
	return h
}

// Flush invalidates the whole slice (kernel-boundary software coherence).
// Its dirty lines stay marked in the tag array, which is the flush's
// queue: deliver writes them back through SendMiss in set order, making
// each writeback only once the one before it was taken. They go ahead of
// the outbox, which is therefore required empty, as is the pipeline whose
// completions would enter it: the order is the one a flush that queued
// every writeback at once would have.
func (s *Slice) Flush() {
	if !s.outbox.Empty() || !s.pipe.Empty() {
		panic(fmt.Sprintf("llc: slice %d flushed with %d completions in its pipeline and %d in its outbox", s.ID, s.pipe.Len(), s.outbox.Len()))
	}
	s.tags.InvalidateAll()
	s.flushAt = 0
	s.wake()
}

// DropReplicas invalidates replica lines (MDR turning off, or kernel
// boundary) and returns the count.
func (s *Slice) DropReplicas() int { return s.tags.InvalidateReplicas() }

// Tick advances the slice one cycle: deliver finished completions, then
// arbitrate one request into the tag pipeline.
func (s *Slice) Tick(now sim.Cycle) {
	s.deliver(now)
	s.retirePipe(now)
	s.arbitrate(now)
	s.sleep.Set(s.NextWake(now))
}

// deliver drains a flush's writebacks, then the outbox, in order; a send
// failure blocks the head (back-pressure), which parks until the cycle the
// port named, if it named one.
func (s *Slice) deliver(now sim.Cycle) {
	if !s.out.Begin(now, s.audit) {
		return
	}
	for {
		c, ok := s.head()
		if !ok {
			return
		}
		s.OutOffers.Offered++
		var sent bool
		switch c.kind {
		case outReply:
			sent = s.SendReply(c.req, now)
		case outToMem:
			sent = s.SendMiss(c.req, now)
		case outForward:
			sent = s.SendForward(c.req, now)
		case outStoreAck:
			s.StoreDone(c.req, now)
			sent = true
		}
		if !sent {
			s.OutOffers.Refused++
			s.out.Refused(now)
			return
		}
		s.out.Taken(now, s.audit, "LLC slice outbox", s.ID)
		if s.held != nil {
			s.held = nil
		} else {
			s.outbox.Pop()
		}
	}
}

// head returns what deliver offers next: a draining flush's writeback,
// made from the tag array's next dirty line if none is held, or else the
// outbox's head.
func (s *Slice) head() (outcome, bool) {
	if s.flushAt >= 0 && s.held == nil {
		line, next := s.tags.NextWriteback(s.flushAt)
		if s.flushAt = next; next >= 0 {
			s.held = s.newWriteback(line)
		}
	}
	if s.held != nil {
		return outcome{outToMem, s.held}, true
	}
	return s.outbox.Peek()
}

// retirePipe moves completions whose tag/data latency elapsed into the
// outbox.
func (s *Slice) retirePipe(now sim.Cycle) {
	for {
		c, ok := s.pipe.Peek()
		if !ok || c.ready > now {
			return
		}
		s.pipe.Pop()
		s.outbox.Push(c.outcome)
	}
}

// arbitrate pops one request per cycle, alternating LMR/RMR when both
// hold requests (Figure 5's round-robin selector).
func (s *Slice) arbitrate(now sim.Cycle) {
	if !s.arb.Begin(now, s.audit) {
		return
	}
	var q *sim.Queue[*sim.MemReq]
	switch {
	case s.lmr.Empty() && s.rmr.Empty():
		return
	case s.lmr.Empty():
		q = s.rmr
	case s.rmr.Empty():
		q = s.lmr
	case s.rrNextRemote:
		q = s.rmr
	default:
		q = s.lmr
	}
	req, _ := q.Peek()
	s.ArbOffers.Offered++
	if !s.process(req, now) {
		// Stalled (MSHR full): the request stays at the head and the
		// arbiter parks until a door opens.
		s.ArbOffers.Refused++
		s.arb.Until = sim.Never
		return
	}
	s.arb.Taken(now, s.audit, "LLC slice arbiter", s.ID)
	q.Pop()
	if q == s.lmr {
		s.rrNextRemote = true
	} else {
		s.rrNextRemote = false
	}
}

// onReplicaPath reports whether req is at this slice as its replica
// slice, not its home: a miss here is forwarded to req.Slice.
func (s *Slice) onReplicaPath(req *sim.MemReq) bool {
	return int(req.ReplicaSlice) == s.ID && int(req.Slice) != s.ID
}

// process runs one request through the tag array. It returns false only
// for a home miss that finds the MSHR file full.
func (s *Slice) process(req *sim.MemReq, now sim.Cycle) bool {
	// Coherence invalidation (SM-side UBA): drop the line, no reply.
	if req.Inval {
		s.tags.Invalidate(req.Addr)
		s.Invalidations++
		s.stats.CoherenceInvalidations++
		s.Reqs.Put(req) // no reply: the invalidation ends here
		return true
	}

	done := now + s.cfg.LLCLatency
	isReplicaPath := s.onReplicaPath(req)

	switch req.Kind {
	case sim.Store:
		// The store commits into the line. An SM's store is then
		// acknowledged; a writeback (from an L1/flush path or another
		// slice) has no one to answer and ends here.
		s.stats.LLCAccesses++
		s.install(req.Addr, true, false, now, done)
		if req.SM < 0 {
			s.Reqs.Put(req)
		} else {
			s.pipe.Push(completion{done, outcome{outStoreAck, req}})
		}
		return true

	case sim.Load, sim.Atomic:
		s.stats.LLCAccesses++
		hit := s.tags.Access(req.Addr, false, int64(now))
		if hit {
			s.stats.LLCHits++
			if req.Kind == sim.Atomic {
				// The raster-op unit updates the line in place.
				s.tags.Insert(req.Addr, true, false, int64(now))
			}
			if isReplicaPath {
				req.Replicated = true
			}
			s.pipe.Push(completion{done, outcome{outReply, req}})
			return true
		}
		s.stats.LLCMisses++
		line := s.tags.LineAddr(req.Addr)
		if isReplicaPath && s.mshr.Len()+2 > s.cfg.LLCMSHRs {
			if _, pending := s.mshr.Lookup(line); !pending {
				// A forward never takes the file's last entry, so a home
				// miss, which waits on DRAM alone, can always get one: this
				// one goes out unmerged and the home slice's MSHR merges it
				// (DESIGN.md §3 "LLC slice").
				s.pipe.Push(completion{done, outcome{outForward, req}})
				return true
			}
		}
		if _, merged, ok := s.mshr.Allocate(line, req, now); !ok {
			s.stats.LLCAccesses-- // retried; don't double count
			s.stats.LLCMisses--
			return false
		} else if merged {
			return true
		}
		if isReplicaPath {
			s.pipe.Push(completion{done, outcome{outForward, req}})
		} else {
			s.pipe.Push(completion{done, outcome{outToMem, req}})
		}
		return true
	}
	return true
}

// install inserts a line into the tag array and, when that evicts a dirty
// victim, sends the victim's writeback down the pipeline for cycle wbAt.
func (s *Slice) install(addr uint64, dirty, replica bool, now, wbAt sim.Cycle) {
	if victim, wb := s.tags.Insert(addr, dirty, replica, int64(now)); wb {
		s.pipe.Push(completion{wbAt, outcome{outToMem, s.newWriteback(victim)}})
	}
}

// newWriteback builds the store that carries a dirty line to memory. It
// has no SM and no reply; the memory controller retires it when the
// write burst completes.
func (s *Slice) newWriteback(line uint64) *sim.MemReq {
	return s.Reqs.Get(sim.MemReq{Kind: sim.Store, Addr: line, Size: sim.LineSize, SM: -1, Slice: int16(s.ID), Channel: -1, ReplicaSlice: -1})
}

// AcceptFill handles data returning from the memory controller (home
// path) for an outstanding miss: install the line, dirty if an atomic
// waits on it, and reply to the primary and all merged waiters.
func (s *Slice) AcceptFill(req *sim.MemReq, now sim.Cycle) { s.fill(req, now, false) }

// AcceptReplicaFill handles a reply returning over the NoC from the home
// slice for a forwarded replica miss: install the line as a replica and
// reply locally to the primary and merged waiters, marked Replicated.
func (s *Slice) AcceptReplicaFill(req *sim.MemReq, now sim.Cycle) { s.fill(req, now, true) }

// fill is the body the two fill doors share.
func (s *Slice) fill(req *sim.MemReq, now sim.Cycle, replica bool) {
	s.wake()
	line := s.tags.LineAddr(req.Addr)
	entry, ok := s.mshr.Lookup(line)
	if !ok || entry.Primary != req {
		// An unmerged forward holds no entry; a later miss on its line may
		// hold one, which only that miss's own fill releases. Answer the
		// requester alone.
		if replica {
			s.install(line, false, true, now, now)
		}
		req.Replicated = req.Replicated || replica
		s.outbox.Push(outcome{outReply, req})
		return
	}
	s.mshr.Release(line)
	// A home-path line arrives dirty when an atomic waits on it; a replica
	// holds read-only data.
	atomic := entry.Primary.Kind == sim.Atomic
	for r := entry.Waiters; r != nil; r = r.Next {
		atomic = atomic || r.Kind == sim.Atomic
	}
	s.install(line, atomic && !replica, replica, now, now)
	entry.Primary.Replicated = entry.Primary.Replicated || replica
	s.outbox.Push(outcome{outReply, entry.Primary})
	for r := entry.Waiters; r != nil; r = r.Next {
		r.Replicated = r.Replicated || replica
		s.outbox.Push(outcome{outReply, r})
	}
}

// DebugState summarizes queue occupancy for stall diagnosis and, while
// misses are outstanding, what the MSHR entries wait on: how many
// primaries are fills from memory, how many are replica-path forwards to
// each home slice, and the cycle the oldest was allocated.
func (s *Slice) DebugState(sim.Cycle) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lmr=%d rmr=%d pipe=%d outbox=%d mshr=%d",
		s.lmr.Len(), s.rmr.Len(), s.pipe.Len(), s.outbox.Len(), s.mshr.Len())
	// The parks the last tick left.
	if s.arb.Until != 0 {
		b.WriteString(" arb-parked")
	}
	if s.out.Until != 0 {
		b.WriteString(" outbox-parked-until=" + sim.Until(s.out.Until))
	}
	// A draining flush: the cursor and the writeback it holds, if any.
	if s.flushAt >= 0 {
		fmt.Fprintf(&b, " flush-at=%d", s.flushAt)
		if s.held != nil {
			fmt.Fprintf(&b, " flush-held=%#x", s.held.Addr)
		}
	}
	if s.mshr.Len() == 0 {
		return b.String()
	}
	mem, oldest := 0, sim.Never
	fwd := make([]int, s.cfg.NumLLCSlices) // by home slice
	s.mshr.Each(func(e *cache.MSHREntry) {
		if s.onReplicaPath(e.Primary) {
			fwd[e.Primary.Slice]++
		} else {
			mem++
		}
		oldest = min(oldest, e.Allocated)
	})
	fmt.Fprintf(&b, " [mem=%d", mem)
	for home, n := range fwd {
		if n > 0 {
			fmt.Fprintf(&b, " fwd->%d=%d", home, n)
		}
	}
	fmt.Fprintf(&b, " oldest=%d]", oldest)
	return b.String()
}

package vm

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/driver"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// System is the shared part of the translation hierarchy: the L2 TLB, the
// page-table walker pool and the page-fault path into the driver. Per-SM
// L1 TLBs live in the SM model; on an L1 TLB miss the SM calls Request and
// suspends the warp until the completion callback fires.
type System struct {
	cfg   *config.Config
	drv   *driver.Driver
	stats *metrics.Stats

	l2 *TLB

	// L2 TLB port accounting: at most L2TLBPorts lookups may start per
	// cycle.
	portCycle sim.Cycle
	portsUsed int

	walkersBusy int
	walkQueue   *sim.Queue[*walk]
	walks       map[uint64]*walk // in-flight walks by VPN (merged)
	// freeWalks holds finished walk records for the next L2 TLB miss;
	// a recycled record keeps its waiters backing array.
	freeWalks []*walk

	events   eventHeap
	lastTick sim.Cycle
	// release is releaseWalker as a func value, bound once: the fault
	// path schedules it as an event.
	release func()
}

type walk struct {
	vpn      uint64
	homePart int  // partition of the first requester (first-touch home)
	writable bool // whether the faulting access's buffer is writable
	waiters  []func()
	started  bool
}

type event struct {
	ready sim.Cycle
	fire  func()
	walk  *walk // non-nil when the event completes a page walk
	// walkerFreed marks walk-completion events whose walker was already
	// released (fault path).
	walkerFreed bool
}

// eventHeap is a binary min-heap on ready. push and pop sift exactly as
// container/heap does — events that tie on ready fire in the order that
// package would fire them, which the simulated timing depends on — but on
// the concrete type, so scheduling an event boxes nothing.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	ev := *h
	for j := len(ev) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || ev[j].ready >= ev[i].ready {
			break
		}
		ev[i], ev[j] = ev[j], ev[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	ev := *h
	n := len(ev) - 1
	ev[0], ev[n] = ev[n], ev[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if r := j + 1; r < n && ev[r].ready < ev[j].ready {
			j = r
		}
		if ev[j].ready >= ev[i].ready {
			break
		}
		ev[i], ev[j] = ev[j], ev[i]
		i = j
	}
	e := ev[n]
	ev[n] = event{} // drop the callback and walk pointers
	*h = ev[:n]
	return e
}

// NewSystem returns the shared translation system.
func NewSystem(cfg *config.Config, drv *driver.Driver, stats *metrics.Stats) *System {
	s := &System{
		cfg:       cfg,
		drv:       drv,
		stats:     stats,
		l2:        NewTLB(cfg.L2TLBEntries, cfg.L2TLBWays),
		walkQueue: sim.NewQueue[*walk](0),
		walks:     make(map[uint64]*walk),
	}
	s.release = s.releaseWalker
	return s
}

// L2 exposes the shared TLB (for shootdowns and tests).
func (s *System) L2() *TLB { return s.l2 }

// portAvailable consumes one L2 TLB port for cycle now if one is free.
func (s *System) portAvailable(now sim.Cycle) bool {
	if s.portCycle != now {
		s.portCycle = now
		s.portsUsed = 0
	}
	if s.portsUsed >= s.cfg.L2TLBPorts {
		return false
	}
	s.portsUsed++
	return true
}

// Request starts a translation for vpn on behalf of an SM in partition
// part whose access targets a buffer with the given writability. done
// fires when the translation completes (the caller then consults the
// driver for the physical frame). Request reports false when the L2 TLB
// ports are saturated this cycle and the SM must retry next cycle.
func (s *System) Request(part int, vpn uint64, writable bool, now sim.Cycle, done func()) bool {
	if !s.portAvailable(now) {
		return false
	}
	s.stats.L2TLBAccesses++
	if s.l2.Lookup(vpn, now) {
		s.events.push(event{ready: now + s.cfg.L2TLBLatency, fire: done})
		return true
	}
	s.stats.L2TLBMisses++
	// Merge into an in-flight walk for the same page if one exists.
	if w, ok := s.walks[vpn]; ok {
		w.waiters = append(w.waiters, done)
		return true
	}
	w := s.newWalk()
	w.vpn, w.homePart, w.writable = vpn, part, writable
	w.waiters = append(w.waiters, done)
	s.walks[vpn] = w
	s.startOrQueueWalk(w, now+s.cfg.L2TLBLatency)
	return true
}

// newWalk returns a zeroed walk record with an empty waiter list.
func (s *System) newWalk() *walk {
	n := len(s.freeWalks)
	if n == 0 {
		return &walk{}
	}
	w := s.freeWalks[n-1]
	s.freeWalks = s.freeWalks[:n-1]
	*w = walk{waiters: w.waiters[:0]}
	return w
}

func (s *System) startOrQueueWalk(w *walk, at sim.Cycle) {
	if s.walkersBusy >= s.cfg.PageWalkers {
		s.walkQueue.Push(w)
		return
	}
	s.walkersBusy++
	w.started = true
	s.stats.PageWalks++
	lat := s.cfg.PageWalkLatency
	if _, mapped := s.drv.Lookup(w.vpn); !mapped {
		// First touch: the walk page-faults and the driver allocates.
		// The walker is released after the walk itself; the fixed fault
		// penalty is a latency charged to the waiting warps, not a
		// walker occupancy — the host driver batches fault servicing
		// (see DESIGN.md), so faults beyond the walk do not serialize
		// on the 64 walkers.
		s.stats.PageFaults++
		s.drv.Allocate(w.vpn, w.homePart, w.writable)
		lat += s.cfg.PageFaultLatency
		s.events.push(event{ready: at + s.cfg.PageWalkLatency, fire: s.release})
		s.events.push(event{ready: at + lat, walk: w, walkerFreed: true})
		return
	}
	s.events.push(event{ready: at + lat, walk: w})
}

// releaseWalker frees one walker slot and admits a queued walk.
func (s *System) releaseWalker() {
	s.walkersBusy--
	if next, ok := s.walkQueue.Pop(); ok {
		s.startOrQueueWalk(next, s.lastTick)
	}
}

// Tick fires due events: L2-hit completions and finished walks. Finished
// walks fill the L2 TLB, release their walker (admitting a queued walk)
// and wake all merged waiters.
func (s *System) Tick(now sim.Cycle) {
	s.lastTick = now
	for len(s.events) > 0 && s.events[0].ready <= now {
		e := s.events.pop()
		if e.walk == nil {
			e.fire()
			continue
		}
		w := e.walk
		delete(s.walks, w.vpn)
		s.l2.Insert(w.vpn, now)
		if !e.walkerFreed {
			s.releaseWalker()
		}
		for _, f := range w.waiters {
			f()
		}
		clear(w.waiters) // callers' callbacks are not ours to keep alive
		s.freeWalks = append(s.freeWalks, w)
	}
}

// Idle reports whether no translation is in flight.
func (s *System) Idle() bool {
	return len(s.events) == 0 && len(s.walks) == 0 && s.walkQueue.Empty()
}

// DebugState is the hang report's line for the system: walks started and
// not finished, walks waiting for a walker, busy walkers and the cycle the
// next timing event fires.
func (s *System) DebugState(now sim.Cycle) string {
	q := s.walkQueue.Len()
	return fmt.Sprintf("walks=%d queued=%d walkers=%d/%d next=%s", len(s.walks)-q, q, s.walkersBusy, s.cfg.PageWalkers, sim.Until(s.NextWake(now)))
}

// NextWake returns the cycle the earliest queued timing event fires, or
// sim.Never when none is scheduled. Every in-flight walk (and every
// queued walk, which a completion event admits) is driven by a heap
// event, so Tick is a no-op on any cycle before this one.
func (s *System) NextWake(sim.Cycle) sim.Cycle {
	if len(s.events) == 0 {
		return sim.Never
	}
	return s.events[0].ready
}

// StateSig returns a signature of the translation system's observable
// state: the event heap (length and firing cycles), busy walkers and
// the queued and in-flight walk counts. lastTick is pure time progress
// and excluded.
func (s *System) StateSig() uint64 {
	h := sim.MixSig(sim.SigSeed, uint64(len(s.events)))
	for _, e := range s.events {
		h = sim.MixSig(h, uint64(e.ready))
	}
	h = sim.MixSig(h, uint64(s.walkersBusy))
	h = sim.MixSig(h, uint64(s.walkQueue.Len()))
	h = sim.MixSig(h, uint64(len(s.walks)))
	return h
}

// Shootdown flushes vpn from the L2 TLB (per-SM L1 TLB flushes are the
// core's responsibility since it owns the SMs).
func (s *System) Shootdown(vpn uint64) { s.l2.Flush(vpn) }

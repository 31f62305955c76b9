package llc

import (
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// harness wires a slice to in-memory sinks.
type harness struct {
	s        *Slice
	replies  []*sim.MemReq
	misses   []*sim.MemReq
	forwards []*sim.MemReq
	acks     []*sim.MemReq
	blockMem bool
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessWith(t, func(*config.Config) {})
}

// newHarnessWith is newHarness with the configuration adjusted by mut.
func newHarnessWith(t *testing.T, mut func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Baseline()
	mut(&cfg)
	st := &metrics.Stats{}
	h := &harness{s: New(2, 1, &cfg, st)}
	h.s.SendReply = func(r *sim.MemReq, _ sim.Cycle) bool { h.replies = append(h.replies, r); return true }
	h.s.SendMiss = func(r *sim.MemReq, _ sim.Cycle) bool {
		if h.blockMem {
			return false
		}
		h.misses = append(h.misses, r)
		return true
	}
	h.s.SendForward = func(r *sim.MemReq, _ sim.Cycle) bool { h.forwards = append(h.forwards, r); return true }
	h.s.StoreDone = func(r *sim.MemReq, _ sim.Cycle) { h.acks = append(h.acks, r) }
	return h
}

func (h *harness) run(from, to sim.Cycle) {
	for now := from; now <= to; now++ {
		h.s.Tick(now)
	}
}

func load(id uint32, addr uint64, sm int16) *sim.MemReq {
	return &sim.MemReq{ID: id, Kind: sim.Load, Addr: addr, SM: sm, Slice: 2, ReplicaSlice: -1}
}

func TestLoadMissGoesToMemoryThenReplies(t *testing.T) {
	h := newHarness(t)
	r := load(1, 0x1000, 0)
	h.s.EnqueueLocal(r)
	h.run(1, 200)
	if len(h.misses) != 1 || h.misses[0] != r {
		t.Fatalf("miss not forwarded: %d", len(h.misses))
	}
	if len(h.replies) != 0 {
		t.Fatal("premature reply")
	}
	h.s.AcceptFill(r, 200)
	h.run(201, 205)
	if len(h.replies) != 1 {
		t.Fatal("fill produced no reply")
	}
	// Second access to the same line now hits.
	r2 := load(2, 0x1000, 1)
	h.s.EnqueueLocal(r2)
	h.run(206, 400)
	if len(h.misses) != 1 {
		t.Fatal("hit went to memory")
	}
	if len(h.replies) != 2 {
		t.Fatal("hit produced no reply")
	}
}

func TestLLCLatencyRespected(t *testing.T) {
	h := newHarness(t)
	cfgLat := sim.Cycle(120)
	r := load(1, 0x40, 0)
	h.s.EnqueueLocal(r)
	var missAt sim.Cycle
	h.s.SendMiss = func(q *sim.MemReq, now sim.Cycle) bool { missAt = now; h.misses = append(h.misses, q); return true }
	h.run(1, 300)
	if missAt < cfgLat {
		t.Fatalf("miss left the slice at %d, before the %d-cycle pipeline", missAt, cfgLat)
	}
}

func TestMSHRMergesSecondMiss(t *testing.T) {
	h := newHarness(t)
	a, b := load(1, 0x2000, 0), load(2, 0x2000, 1)
	h.s.EnqueueLocal(a)
	h.s.EnqueueRemote(b)
	h.run(1, 200)
	if len(h.misses) != 1 {
		t.Fatalf("expected single memory fetch, got %d", len(h.misses))
	}
	h.s.AcceptFill(a, 200)
	h.run(201, 210)
	if len(h.replies) != 2 {
		t.Fatalf("both requesters should be answered, got %d", len(h.replies))
	}
}

func TestArbiterAlternatesQueues(t *testing.T) {
	h := newHarness(t)
	// Fill both queues; the round-robin arbiter must alternate.
	for i := 0; i < 4; i++ {
		h.s.EnqueueLocal(load(uint32(10+i), uint64(0x100000+i*128), 0))
		h.s.EnqueueRemote(load(uint32(20+i), uint64(0x200000+i*128), 1))
	}
	h.run(1, 400)
	if len(h.misses) != 8 {
		t.Fatalf("processed %d", len(h.misses))
	}
	// The first eight misses alternate local/remote by construction:
	// ids 10,20,11,21,...
	for i := 0; i < 4; i++ {
		if h.misses[2*i].ID != uint32(10+i) || h.misses[2*i+1].ID != uint32(20+i) {
			t.Fatalf("arbitration order broken: %d %d", h.misses[2*i].ID, h.misses[2*i+1].ID)
		}
	}
}

func TestStoreCommitsAndAcks(t *testing.T) {
	h := newHarness(t)
	st := &sim.MemReq{ID: 1, Kind: sim.Store, Addr: 0x3000, SM: 3, Slice: 2, ReplicaSlice: -1}
	h.s.EnqueueLocal(st)
	h.run(1, 200)
	if len(h.acks) != 1 {
		t.Fatal("store not acked")
	}
	if len(h.misses) != 0 {
		t.Fatal("write-validate store should not fetch")
	}
	// The stored line is now present (dirty): a load hits.
	r := load(2, 0x3000, 0)
	h.s.EnqueueLocal(r)
	h.run(201, 400)
	if len(h.misses) != 0 || len(h.replies) != 1 {
		t.Fatal("load after store did not hit")
	}
}

func TestAtomicDirtiesLine(t *testing.T) {
	h := newHarness(t)
	at := &sim.MemReq{ID: 1, Kind: sim.Atomic, Addr: 0x5000, SM: 0, Slice: 2, ReplicaSlice: -1}
	h.s.EnqueueLocal(at)
	h.run(1, 200)
	if len(h.misses) != 1 {
		t.Fatal("atomic miss should fetch")
	}
	h.s.AcceptFill(at, 200)
	h.run(201, 210)
	if len(h.replies) != 1 {
		t.Fatal("atomic not replied")
	}
	// Flush must write the dirtied line back.
	h.s.Flush(211)
	h.run(212, 220)
	found := false
	for _, m := range h.misses[1:] {
		if m.Kind == sim.Store && m.Addr == 0x5000 && m.SM < 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty atomic line not written back on flush")
	}
}

func TestInvalDropsLine(t *testing.T) {
	h := newHarness(t)
	st := &sim.MemReq{ID: 1, Kind: sim.Store, Addr: 0x7000, SM: 0, Slice: 2, ReplicaSlice: -1}
	h.s.EnqueueLocal(st)
	h.run(1, 200)
	inv := &sim.MemReq{Kind: sim.Store, Addr: 0x7000, SM: -1, Slice: 2, ReplicaSlice: -1, Inval: true}
	h.s.EnqueueRemote(inv)
	h.run(201, 330)
	// A load now misses (line dropped without writeback reply).
	r := load(3, 0x7000, 0)
	h.s.EnqueueLocal(r)
	h.run(331, 500)
	if len(h.misses) == 0 {
		t.Fatal("line survived invalidation")
	}
	if h.s.Invalidations != 1 {
		t.Fatalf("inval count %d", h.s.Invalidations)
	}
}

func TestReplicaPathForwardAndFill(t *testing.T) {
	h := newHarness(t)
	// Request for a remote home line (slice 9) replicated at this slice (2).
	r := &sim.MemReq{ID: 1, Kind: sim.Load, Addr: 0x9000, SM: 0, Slice: 9, ReplicaSlice: 2, ReadOnly: true}
	h.s.EnqueueLocal(r)
	h.run(1, 200)
	if len(h.forwards) != 1 {
		t.Fatalf("replica miss not forwarded: %d", len(h.forwards))
	}
	if len(h.misses) != 0 {
		t.Fatal("replica miss went to local memory")
	}
	h.s.AcceptReplicaFill(r, 200)
	h.run(201, 210)
	if len(h.replies) != 1 || !r.Replicated {
		t.Fatal("replica fill not replied/marked")
	}
	// Next access hits the replica locally.
	r2 := &sim.MemReq{ID: 2, Kind: sim.Load, Addr: 0x9000, SM: 1, Slice: 9, ReplicaSlice: 2, ReadOnly: true}
	h.s.EnqueueLocal(r2)
	h.run(211, 400)
	if len(h.forwards) != 1 {
		t.Fatal("replica hit forwarded again")
	}
	if !r2.Replicated {
		t.Fatal("replica hit not marked")
	}
	// DropReplicas removes it.
	if n := h.s.DropReplicas(); n != 1 {
		t.Fatalf("dropped %d replicas", n)
	}
}

// replicaLoad is a load for a line whose home is slice 9, replicated at the
// harness's slice 2.
func replicaLoad(id uint32, addr uint64, sm int16) *sim.MemReq {
	return &sim.MemReq{ID: id, Kind: sim.Load, Addr: addr, SM: sm, Slice: 9, ReplicaSlice: 2, ReadOnly: true}
}

// A forward never takes the MSHR file's last entry (DESIGN.md §3 "LLC
// slice"): with two entries, the first replica-path miss takes one, a
// second to another line goes to the home slice unmerged, and a home miss
// still gets the last entry. A replica-path miss to a line that has an
// entry merges behind it however full the file is, and the unmerged
// forward's fill answers its own requester and installs the replica.
func TestForwardLeavesTheLastEntry(t *testing.T) {
	h := newHarnessWith(t, func(c *config.Config) { c.LLCMSHRs = 2 })
	a, b, home, a2 := replicaLoad(1, 0x9000, 0), replicaLoad(2, 0xA000, 1), load(3, 0x1000, 0), replicaLoad(4, 0x9000, 1)
	for _, r := range []*sim.MemReq{a, b, home, a2} {
		h.s.EnqueueLocal(r)
	}
	h.run(1, 200)
	if len(h.forwards) != 2 || h.forwards[0] != a || h.forwards[1] != b || len(h.misses) != 1 || h.misses[0] != home {
		t.Fatalf("forwarded %d, sent %d to memory; want a and b forwarded and the home miss sent", len(h.forwards), len(h.misses))
	}
	if n, refused := h.s.mshr.Len(), h.s.ArbOffers.Refused; n != 2 || refused != 0 {
		t.Fatalf("%d entries held, %d refusals; want a's and the home miss's entries and no refusal", n, refused)
	}
	h.s.AcceptReplicaFill(b, 200)
	h.run(201, 205)
	if len(h.replies) != 1 || h.replies[0] != b || !b.Replicated || h.s.mshr.Len() != 2 {
		t.Fatalf("b's fill: %d replies, %d entries; want b alone answered, marked replicated, both entries kept", len(h.replies), h.s.mshr.Len())
	}
	h.s.AcceptReplicaFill(a, 206)
	h.run(207, 210)
	if len(h.replies) != 3 || h.replies[1] != a || h.replies[2] != a2 || h.s.mshr.Len() != 1 {
		t.Fatalf("a's fill: %d replies, %d entries; want a and a2 answered and the home miss's entry kept", len(h.replies), h.s.mshr.Len())
	}
	h.s.EnqueueLocal(replicaLoad(5, 0xA000, 0))
	h.run(211, 400)
	if len(h.forwards) != 2 || len(h.replies) != 4 {
		t.Fatalf("a load of b's line: %d forwards, %d replies; want a hit on the replica b's fill installed", len(h.forwards), len(h.replies))
	}
}

// With a one-entry file a replicating slice forwards every miss unmerged —
// two to one line included — and still serves its home misses.
func TestOneEntryFileForwardsEveryReplicaMiss(t *testing.T) {
	h := newHarnessWith(t, func(c *config.Config) { c.LLCMSHRs = 1 })
	r1, home, r2, r3 := replicaLoad(1, 0x9000, 0), load(2, 0x1000, 0), replicaLoad(3, 0x9000, 1), replicaLoad(4, 0xA000, 0)
	for _, r := range []*sim.MemReq{r1, home, r2, r3} {
		h.s.EnqueueLocal(r)
	}
	h.run(1, 200)
	if len(h.forwards) != 3 || len(h.misses) != 1 || h.misses[0] != home {
		t.Fatalf("forwarded %d, sent %d to memory; want three forwards and the home miss", len(h.forwards), len(h.misses))
	}
	if n, refused := h.s.mshr.Len(), h.s.ArbOffers.Refused; n != 1 || refused != 0 {
		t.Fatalf("%d entries held, %d refusals; want the home miss's entry alone and no refusal", n, refused)
	}
	for _, r := range []*sim.MemReq{r1, r2, r3} {
		h.s.AcceptReplicaFill(r, 200)
	}
	h.s.AcceptFill(home, 200)
	h.run(201, 210)
	if len(h.replies) != 4 || !h.s.Idle() {
		t.Fatalf("%d replies, idle %v; want every request answered once and the slice drained", len(h.replies), h.s.Idle())
	}
}

// An unmerged forward's fill can arrive after a later miss on its line has
// taken an entry. It answers its own requester and leaves the entry — its
// primary and the waiter merged behind it — to that entry's own fill:
// releasing by line alone would answer those two early, and their fill
// would then find no entry and answer them twice.
func TestUnmergedForwardFillLeavesALaterEntry(t *testing.T) {
	h := newHarnessWith(t, func(c *config.Config) { c.LLCMSHRs = 2 })
	home, early := load(1, 0x1000, 0), replicaLoad(2, 0x9000, 0)
	h.s.EnqueueLocal(home)
	h.s.EnqueueLocal(early) // one entry held: early goes out unmerged
	h.run(1, 200)
	h.s.AcceptFill(home, 200)
	later, merged := replicaLoad(3, 0x9000, 1), replicaLoad(4, 0x9000, 0)
	h.s.EnqueueLocal(later) // the file is empty again: later takes an entry
	h.s.EnqueueLocal(merged)
	h.run(201, 400)
	if len(h.forwards) != 2 || h.forwards[1] != later || h.s.mshr.Len() != 1 {
		t.Fatalf("%d forwards, %d entries; want early and later forwarded and later's entry held", len(h.forwards), h.s.mshr.Len())
	}
	h.replies = h.replies[:0] // the home miss's
	h.s.AcceptReplicaFill(early, 400)
	h.run(401, 405)
	if len(h.replies) != 1 || h.replies[0] != early || h.s.mshr.Len() != 1 {
		t.Fatalf("early's fill: %d replies, %d entries; want early alone answered and later's entry kept", len(h.replies), h.s.mshr.Len())
	}
	h.s.AcceptReplicaFill(later, 406)
	h.run(407, 410)
	if len(h.replies) != 3 || h.replies[1] != later || h.replies[2] != merged || !h.s.Idle() {
		t.Fatalf("later's fill: %d replies, idle %v; want later and merged answered once each", len(h.replies), h.s.Idle())
	}
}

func TestBackpressureRetries(t *testing.T) {
	h := newHarness(t)
	h.blockMem = true
	r := load(1, 0xA000, 0)
	h.s.EnqueueLocal(r)
	h.run(1, 300)
	if len(h.misses) != 0 {
		t.Fatal("miss escaped despite blocked channel")
	}
	if h.s.Idle() {
		t.Fatal("slice dropped the request")
	}
	h.blockMem = false
	h.run(301, 310)
	if len(h.misses) != 1 {
		t.Fatal("miss not retried after unblock")
	}
}

// Every door work can come through must clear the sleep deadline
// (DESIGN.md §9 "Sleep deadlines") and the arbiter's park (§9 "Parks"): a
// slice the core has stopped ticking, or an arbiter that has stopped
// offering its pick, and that a door does not wake never runs again, and
// the run hangs. One row per door, so a deleted reset fails by name.
func TestDoorsWake(t *testing.T) {
	for _, tc := range []struct {
		door string
		open func(h *harness, miss *sim.MemReq, now sim.Cycle)
	}{
		{"EnqueueLocal", func(h *harness, _ *sim.MemReq, _ sim.Cycle) { h.s.EnqueueLocal(load(9, 0x9000, 0)) }},
		{"EnqueueRemote", func(h *harness, _ *sim.MemReq, _ sim.Cycle) { h.s.EnqueueRemote(load(9, 0x9000, 0)) }},
		{"AcceptFill", func(h *harness, miss *sim.MemReq, now sim.Cycle) { h.s.AcceptFill(miss, now) }},
		{"AcceptReplicaFill", func(h *harness, miss *sim.MemReq, now sim.Cycle) { h.s.AcceptReplicaFill(miss, now) }},
		{"Flush", func(h *harness, _ *sim.MemReq, now sim.Cycle) { h.s.Flush(now) }},
	} {
		t.Run(tc.door, func(t *testing.T) {
			// A one-entry MSHR file: the first miss goes to memory, the
			// second stalls the arbiter, which parks, and the slice is left
			// with nothing to do: asleep until the fill.
			h := newHarnessWith(t, func(c *config.Config) { c.LLCMSHRs = 1 })
			miss := load(1, 0x1000, 0)
			h.s.EnqueueLocal(miss)
			h.s.EnqueueLocal(load(2, 0x2000, 0))
			now := sim.Cycle(1)
			for ; h.s.Sleep().At() != sim.Never; now++ {
				if now > 1000 {
					t.Fatal("slice never went to sleep")
				}
				h.s.Tick(now)
			}
			if len(h.misses) != 1 || h.s.arb.Until != sim.Never {
				t.Fatalf("asleep with %d misses sent and arbiter parked = %v, want 1 and true", len(h.misses), h.s.arb.Until == sim.Never)
			}
			tc.open(h, miss, now)
			if d := h.s.Sleep().At(); d > now {
				t.Fatalf("%s left the slice asleep until %d at cycle %d", tc.door, d, now)
			}
			if h.s.arb.Until != 0 {
				t.Fatalf("%s left the arbiter parked", tc.door)
			}
		})
	}
}

// A refused head parks (DESIGN.md §9 "Parks"): the arbiter's pick, refused
// by a full MSHR file, is not offered again until a door opens, and the
// outbox's head, refused by a port that names a cycle, not before that
// cycle — where TestBackpressureRetries' port, which names none, is asked
// every cycle. The slice sleeps through both, and says so in its report.
func TestRefusedHeadsPark(t *testing.T) {
	h := newHarnessWith(t, func(c *config.Config) { c.LLCMSHRs = 1 })
	const until = 400
	h.s.SendMiss = func(r *sim.MemReq, now sim.Cycle) bool {
		if now < until {
			h.s.ParkOutbox(until)
			return false
		}
		h.misses = append(h.misses, r)
		return true
	}
	miss := load(1, 0x1000, 0)
	h.s.EnqueueLocal(miss)
	h.s.EnqueueLocal(load(2, 0x2000, 0))
	h.run(1, 200)
	arb, out := h.s.ArbOffers, h.s.OutOffers
	if arb != (sim.Offers{Offered: 2, Refused: 1}) || out != (sim.Offers{Offered: 1, Refused: 1}) {
		t.Fatalf("after 200 cycles: arbiter %+v, outbox %+v; want one refusal each and no retry", arb, out)
	}
	if got, want := h.s.DebugState(200), "lmr=1 rmr=0 pipe=0 outbox=1 mshr=1 arb-parked outbox-parked-until=400"; !strings.HasPrefix(got, want) {
		t.Errorf("report %q, want it to begin %q", got, want)
	}
	if w := h.s.NextWake(200); w != until || h.s.Sleep().At() != until {
		t.Errorf("NextWake = %d, asleep until %d; want the outbox's park, %d", w, h.s.Sleep().At(), until)
	}
	h.run(201, until-1)
	if h.s.ArbOffers != arb || h.s.OutOffers != out {
		t.Fatalf("a parked head was offered before cycle %d: arbiter %+v, outbox %+v", until, h.s.ArbOffers, h.s.OutOffers)
	}
	h.s.Tick(until)
	if len(h.misses) != 1 || h.s.OutOffers.Offered != out.Offered+1 {
		t.Fatalf("cycle %d: %d misses sent, outbox %+v; want the parked head offered and taken", until, len(h.misses), h.s.OutOffers)
	}
	// The arbiter stays parked until the fill, whose release of the one
	// entry lets the second miss through on the next tick.
	h.run(until+1, until+100)
	if h.s.ArbOffers != arb {
		t.Fatalf("the arbiter offered its parked pick with no door open: %+v", h.s.ArbOffers)
	}
	h.s.AcceptFill(miss, until+100)
	h.s.Tick(until + 101)
	if got := h.s.ArbOffers; got.Offered != arb.Offered+1 || got.Refused != arb.Refused {
		t.Errorf("the tick after the fill: arbiter %+v, want one more offer, taken", got)
	}
}

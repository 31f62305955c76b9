package smcore

import (
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// A load that cannot be tracked this cycle — the L1 MSHR file is full, or
// it would be a primary miss and the send queue is full — stalls the LSU,
// and the stall parks it (DESIGN.md §9 "Parks"): until the structure can
// drain, the stalled line is not offered to the L1 again. So a stall
// creates nothing — building the request before asking (as accessL1 once
// did, as an argument of MSHRFile.Allocate) burned one MemReq and one
// request id per stalled cycle, and the send-queue rollback one more — and
// costs nothing either; and the event that frees the structure — a reply,
// the send queue's head going out — un-parks the LSU on that very cycle.
// A port that refuses and names no cycle parks nothing: both heads are
// retried every cycle, and the retry creates nothing just the same.

// memStats is the part of the run statistics the LSU moves.
func memStats(r *testRig) [5]int64 {
	st := r.stats
	return [5]int64{st.L1Accesses, st.L1Hits, st.L1Misses, st.TLBAccesses, st.TLBMisses}
}

// holdStalled ticks the rig until stalled() holds, then a few cycles more
// so that the LSU has settled on the stalled line, then n cycles over which
// nothing may be created: no request, no request id, no movement of the
// memory statistics, no allocation. With parked set the LSU must be parked
// through the hold and neither site makes an offer; without it — a refuser
// that names no cycle — nothing may park, and each site offers its head
// once a cycle and is refused. It returns the cycle it stopped at. Memory
// never answers while it runs.
func holdStalled(t *testing.T, r *testRig, n int, parked bool, stalled func() bool) sim.Cycle {
	t.Helper()
	now := sim.Cycle(0)
	for !stalled() {
		now++
		if now > 400000 {
			t.Fatal("never reached the stalled state")
		}
		r.tick(now)
	}
	// A finished page walk is a door too: let the walks in flight land, so
	// that the last park is the one the hold watches.
	walking := func() bool {
		for i := 0; i < r.sm.lsu.Len(); i++ {
			if acc := r.sm.lsu.At(i); acc.nextLine < acc.n && acc.lines[acc.nextLine].state == lineTranslating {
				return true
			}
		}
		return false
	}
	for settle := 0; settle < 8 || walking(); settle++ {
		now++
		r.tick(now)
	}
	if parked && r.sm.lsuPark.Until <= now+sim.Cycle(n) {
		t.Fatalf("cycle %d: the LSU is parked until %d, not through the hold", now, r.sm.lsuPark.Until)
	}
	start, seq, sent, stats := now, r.sm.reqSeq, r.sent, memStats(r)
	lsu, send, stalls := r.sm.LSUOffers, r.sm.SendOffers, r.sm.L1MSHRStalls()
	allocs := testing.AllocsPerRun(n, func() {
		now++
		r.tick(now)
		if !parked && (r.sm.sendPark.Until > now || r.sm.lsuPark.Until > now) {
			t.Fatalf("cycle %d: told nothing, yet parked: send queue until %d, LSU until %d", now, r.sm.sendPark.Until, r.sm.lsuPark.Until)
		}
	})
	var each sim.Offers // what every held cycle adds at either site
	if !parked {
		each = sim.Offers{Offered: 1, Refused: 1}
	}
	want := func(o sim.Offers) sim.Offers {
		c := int64(now - start)
		return sim.Offers{Offered: o.Offered + c*each.Offered, Refused: o.Refused + c*each.Refused}
	}
	if r.sm.LSUOffers != want(lsu) || r.sm.SendOffers != want(send) || r.sm.L1MSHRStalls() != stalls {
		t.Errorf("over %d stalled cycles: LSU %+v -> %+v, send queue %+v -> %+v, want %+v a cycle at each; MSHR stalls %d -> %d",
			now-start, lsu, r.sm.LSUOffers, send, r.sm.SendOffers, each, stalls, r.sm.L1MSHRStalls())
	}
	if r.sent != sent || r.sm.reqSeq != seq {
		t.Errorf("%d requests went out and %d request ids were burned over %d stalled cycles", r.sent-sent, r.sm.reqSeq-seq, n)
	}
	if got := memStats(r); got != stats {
		t.Errorf("memory statistics moved over the hold: %v -> %v", stats, got)
	}
	if allocs != 0 {
		t.Errorf("%.0f allocations per stalled cycle, want 0", allocs)
	}
	return now
}

func TestStalledLoadRetryCreatesNothing(t *testing.T) {
	const hold = 500
	t.Run("mshr-full", func(t *testing.T) {
		// Two entries, a memory that does not answer: the third distinct
		// line stalls on the full file, until the first reply.
		r := newRigWith(t, 1<<40, func(c *config.Config) { c.L1MSHRs = 2 })
		r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
		now := holdStalled(t, r, hold, true, func() bool { return r.sm.L1MSHRStalls() > 0 })
		if r.sm.lsuPark.Until != sim.Never || r.sm.lsuStall != stallMSHR {
			t.Fatalf("parked until %d on stall %d, want for ever on the MSHR file", r.sm.lsuPark.Until, r.sm.lsuStall)
		}
		if !strings.Contains(r.sm.DebugState(now), " lsu-parked=mshr") {
			t.Errorf("the report does not show the park: %s", r.sm.DebugState(now))
		}
		checkDense(t, r)
		// The reply is the door: the next tick offers the line again, and it
		// takes the entry the reply released.
		seq, offers := r.sm.reqSeq, r.sm.LSUOffers
		r.sm.AcceptReply(r.pending[0], now)
		r.pending = r.pending[1:]
		r.sm.Tick(now + 1)
		if got := r.sm.LSUOffers; got.Offered != offers.Offered+1 || got.Refused != offers.Refused || r.sm.reqSeq != seq+1 {
			t.Errorf("the tick after the reply: offers %+v -> %+v, %d requests created; want one offer, taken", offers, got, r.sm.reqSeq-seq)
		}
	})
	t.Run("send-queue-full", func(t *testing.T) {
		// The interconnect refuses everything until cycle release, and says
		// so: the send queue fills behind its parked head and the next
		// primary miss stalls with MSHR room to spare.
		const release = 200000 // a first-touch fault alone is 28 k cycles
		r := newRigWith(t, 1<<40, func(*config.Config) {})
		accept := r.sm.Send
		r.sm.Send = func(req *sim.MemReq, now sim.Cycle) bool {
			if now < release {
				r.sm.ParkSend(release)
				return false
			}
			return accept(req, now)
		}
		r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
		now := holdStalled(t, r, hold, true, func() bool { return r.sm.sendQueue.Full() })
		if r.sm.L1MSHRStalls() != 0 {
			t.Fatal("MSHR file filled: this case is meant to stall on the send queue alone")
		}
		if r.sm.lsuPark.Until != release || r.sm.lsuStall != stallSend || now >= release {
			t.Fatalf("cycle %d: parked until %d on stall %d, want until %d on the send queue", now, r.sm.lsuPark.Until, r.sm.lsuStall, release)
		}
		if st := r.sm.DebugState(now); !strings.Contains(st, " send-parked-until=200000 lsu-parked=send@200000") {
			t.Errorf("the report does not show the parks: %s", st)
		}
		if w := r.sm.NextWake(now); w <= now+1 {
			t.Errorf("NextWake = %d at cycle %d with both heads parked until %d", w, now, release)
		}
		checkDense(t, r)
		// Nothing is offered before release; at release the queue drains and
		// the LSU, later in the same tick, gets its line in.
		lsu, send, seq := r.sm.LSUOffers, r.sm.SendOffers, r.sm.reqSeq
		for now++; now < release; now++ {
			r.tick(now)
		}
		if r.sm.LSUOffers != lsu || r.sm.SendOffers != send {
			t.Errorf("a parked head was offered before cycle %d: LSU %+v -> %+v, send queue %+v -> %+v", release, lsu, r.sm.LSUOffers, send, r.sm.SendOffers)
		}
		r.tick(release)
		if got := r.sm.SendOffers.Offered - send.Offered; got < 8 || r.sm.SendOffers.Refused != send.Refused {
			t.Errorf("cycle %d: %d send-queue heads offered, want the whole queue of 8, none refused", release, got)
		}
		if r.sm.LSUOffers.Offered != lsu.Offered+1 || r.sm.reqSeq != seq+1 {
			t.Errorf("cycle %d: the LSU made %d offers and %d requests, want its stalled line taken the cycle the queue drained",
				release, r.sm.LSUOffers.Offered-lsu.Offered, r.sm.reqSeq-seq)
		}
	})
	t.Run("send-queue-full-silent", func(t *testing.T) {
		// The interconnect refuses everything and names no cycle, as every
		// bench/ rig and every unbounded path in the core does: nothing
		// parks, both heads are offered again on every cycle, and a retry
		// still creates nothing.
		r := newRigWith(t, 1<<40, func(*config.Config) {})
		r.sm.Send = func(*sim.MemReq, sim.Cycle) bool { return false }
		r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
		now := holdStalled(t, r, hold, false, func() bool { return r.sm.sendQueue.Full() })
		if r.sm.L1MSHRStalls() != 0 {
			t.Fatal("MSHR file filled: this case is meant to stall on the send queue alone")
		}
		if st := r.sm.DebugState(now); strings.Contains(st, "parked") {
			t.Errorf("the report shows a park nobody asked for: %s", st)
		}
		if w := r.sm.NextWake(now); w != now+1 {
			t.Errorf("NextWake = %d at cycle %d with two heads to retry next cycle", w, now)
		}
		checkDense(t, r)
	})
}

// TestTLBPortStallCountsNothing: an L1 TLB miss the L2 TLB ports refuse
// is retried every cycle, and a retry is neither another L1 TLB access
// nor another miss. Over a held port stall the memory statistics do not
// move; once the ports grant, every L1 TLB miss is one granted request,
// which is one L2 TLB access.
func TestTLBPortStallCountsNothing(t *testing.T) {
	const hold = 500
	r := newRig(t, 40)
	request := r.sm.VMRequest
	refused, granted := 0, int64(0)
	r.sm.VMRequest = func(part int, vpn uint64, writable bool, now sim.Cycle, done func()) bool {
		if now <= hold {
			refused++
			return false
		}
		if !request(part, vpn, writable, now, done) {
			return false
		}
		granted++
		return true
	}
	r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
	stats := memStats(r)
	for now := sim.Cycle(1); now <= hold; now++ {
		r.tick(now)
	}
	if got := memStats(r); got != stats {
		t.Errorf("memory statistics moved over %d cycles of refused translations: %v -> %v", hold, stats, got)
	}
	if refused < hold {
		t.Fatalf("%d refused translations over %d cycles: the stall was not held", refused, hold)
	}
	for now := sim.Cycle(hold + 1); ; now++ {
		r.tick(now)
		if r.sm.Idle() && len(r.pending) == 0 {
			break
		}
		if now > 400000 {
			t.Fatal("SM did not go idle")
		}
	}
	if st := r.stats; st.TLBMisses != granted || st.L2TLBAccesses != granted || st.TLBAccesses < st.TLBMisses {
		t.Errorf("L1 TLB %d accesses %d misses, L2 TLB %d accesses, %d requests granted; want misses = L2 accesses = grants",
			st.TLBAccesses, st.TLBMisses, st.L2TLBAccesses, granted)
	}
}

// checkDense asserts every request id the SM has issued belongs to a
// request that exists: in flight toward memory, merged behind one, or
// waiting in the send queue.
func checkDense(t *testing.T, r *testRig) {
	t.Helper()
	if live := uint64(r.sm.LiveRequests()); r.sm.reqSeq != live {
		t.Errorf("request ids are not dense: %d issued, %d requests live with memory silent", r.sm.reqSeq, live)
	}
}

// TestRequestsRetireAtTheirSM is conservation at the SM: once the kernel
// has drained, every request the SM created has come back and been
// retired, merged waiters included.
func TestRequestsRetireAtTheirSM(t *testing.T) {
	r := newRig(t, 40)
	l := rigLaunch(t, 8, 4)
	r.sm.StartKernel(l, 0, 8)
	r.runToIdle(t, 400000)
	if r.sm.reqSeq == 0 {
		t.Fatal("no requests created")
	}
	if live := r.sm.LiveRequests(); live != 0 {
		t.Fatalf("%d requests never retired", live)
	}
	r.sm.FlushL1()
	r.sm.StartKernel(l, 0, 8)
	r.runToIdle(t, 800000)
	if live := r.sm.LiveRequests(); live != 0 {
		t.Fatalf("%d requests never retired after the second kernel", live)
	}
}

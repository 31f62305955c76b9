package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// TestLinkSet holds linkSet to its contract — Crossbar.Drain's, over an
// array of links: occupied links ascending and arrival order within one, a
// refused message stays at the head and blocks its link, parked — not
// offered again — until the cycle the sink named, a link's bit is set from
// its first send until the drain that empties it, a nil entry (the diagonal
// of the inter-domain set) is never visited, and a zero set drains nothing.
// Under a park audit the parked head is offered every cycle all the same,
// and one taken before its park ended is reported.
func TestLinkSet(t *testing.T) {
	g := MustNew(tinyConfig(config.UBAMem)) // add needs a parts table to register in
	rows := len(g.parts)
	s := newLinkSet[int]("test link", 70) // two occupancy words
	for _, k := range []int{1, 3, 68} {
		// Latency 2, one byte per cycle: a one-byte message sent at
		// cycle c arrives at c+3.
		s.add(g, k, sim.NewLink[int](2, 1, 2), "test link", k, -1)
	}
	if len(g.parts) != rows+3 {
		t.Fatalf("add registered %d rows, want 3", len(g.parts)-rows)
	}
	for i, k := range []int{1, 3, 68} {
		p := &g.parts[rows+i]
		if occ, bit, wake := s.w.Word(k); p.occ != occ || p.bit != bit || p.sleep != wake || p.name() != fmt.Sprintf("test link %d", k) {
			t.Errorf("row of link %d: name %q, bit %#x", k, p.name(), p.bit)
		}
	}

	var got []string
	refuse, until := -1, sim.Cycle(0) // the value sink refuses, and its bound
	sink := func(_ *GPU, k, v int, _ sim.Cycle) sim.Cycle {
		if v == refuse {
			return until
		}
		got = append(got, fmt.Sprintf("%d:%d", k, v))
		return accepted
	}
	drain := func(now sim.Cycle, want ...string) {
		t.Helper()
		got = got[:0]
		s.drain(g, now, sink)
		if !slices.Equal(got, want) {
			t.Errorf("drain at %d delivered %v, want %v", now, got, want)
		}
	}
	occupied := func(want ...int) {
		t.Helper()
		var set []int
		for k := range s.l {
			if s.w.Has(k) {
				set = append(set, k)
			}
		}
		if !slices.Equal(set, want) {
			t.Errorf("occupied links %v, want %v", set, want)
		}
	}

	drain(1)
	if s.idle != 1 {
		t.Errorf("idle = %d after one drain of an empty set", s.idle)
	}
	// Sent out of index order; link 3 carries two messages.
	s.send(68, 1, 680, 1)
	s.send(3, 1, 30, 1)
	s.send(1, 1, 10, 1)
	s.send(3, 2, 31, 1)
	if s.send(3, 2, 32, 1) {
		t.Error("send succeeded on a back-pressured link")
	}
	occupied(1, 3, 68)
	drain(3) // nothing has arrived; every bit stays
	occupied(1, 3, 68)
	drain(4, "1:10", "3:30", "68:680")
	occupied(3) // 31 is still in flight on link 3
	refuse, until = 31, 8
	drain(5)
	occupied(3) // refused: still at the head, bit kept
	s.send(3, 5, 33, 1)
	if s.w.At(3) != 8 || s.retryAt(3, 6, 1) != 9 {
		t.Errorf("refused until 8: link 3 wakes at %d; a sender ahead of the drain on the now full link retries at %d, want 9", s.w.At(3), s.retryAt(3, 6, 1))
	}
	offered := s.offers
	refuse = -1 // the sink would take it now: the park is what holds it
	drain(6)
	drain(7)
	if s.offers != offered {
		t.Errorf("a head parked until 8 was offered before it: %+v -> %+v", offered, s.offers)
	}
	drain(8, "3:31", "3:33") // 33 arrived meanwhile, behind the parked head
	occupied()
	if want := (sim.Offers{Offered: 6, Refused: 1}); s.offers != want {
		t.Errorf("offers = %+v, want %+v", s.offers, want)
	}

	// The same park under audit: offered every cycle, and reported when the
	// sink takes the head before the park's end.
	var audit sim.ParkAudit
	s.w.Audit = &audit
	s.send(1, 10, 11, 1)
	refuse, until = 11, 20
	drain(13)
	drain(14)
	if s.w.At(1) != 20 || s.offers.Refused != 3 || audit.First() != "" {
		t.Errorf("audited park: wake %d, offers %+v, report %q", s.w.At(1), s.offers, audit.First())
	}
	refuse = -1
	drain(15, "1:11")
	if want := "test link 1: head taken at cycle 15, parked until 20"; audit.First() != want {
		t.Errorf("audit report %q, want %q", audit.First(), want)
	}
	s.w.Audit = nil
	if s.idle != 1 {
		t.Errorf("idle = %d; only the first drain found the set empty", s.idle)
	}
	if b, busy, pending := s.totals(); b != 6 || busy != 6 || pending != 0 {
		t.Errorf("totals = %d bytes, %d busy cycles, %d pending; want 6, 6, 0", b, busy, pending)
	}

	var zero linkSet[int]
	zero.drain(g, 1, func(*GPU, int, int, sim.Cycle) sim.Cycle {
		t.Error("a zero linkSet offered a message")
		return accepted
	})
	if b, busy, pending := zero.totals(); b != 0 || busy != 0 || pending != 0 {
		t.Error("a zero linkSet has totals")
	}
}

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
// refused message stays at the head and blocks its link, a link's bit is
// set from its first send until the drain that empties it, a nil entry
// (the diagonal of the inter-domain set) is never visited, and a zero set
// drains nothing.
func TestLinkSet(t *testing.T) {
	g := MustNew(tinyConfig(config.UBAMem)) // add needs a parts table to register in
	rows := len(g.parts)
	s := newLinkSet[int](70) // two occupancy words
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
		if p.occ != &s.occ[k>>6] || p.bit != 1<<(uint(k)&63) || p.name() != fmt.Sprintf("test link %d", k) {
			t.Errorf("row of link %d: name %q, bit %#x", k, p.name(), p.bit)
		}
	}

	var got []string
	refuse := -1 // the value sink refuses
	sink := func(_ *GPU, k, v int, _ sim.Cycle) bool {
		if v == refuse {
			return false
		}
		got = append(got, fmt.Sprintf("%d:%d", k, v))
		return true
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
		for k := s.occ.Next(0); k >= 0; k = s.occ.Next(k + 1) {
			set = append(set, k)
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
	refuse = 31
	drain(5)
	occupied(3) // refused: still at the head, bit kept
	s.send(3, 5, 33, 1)
	drain(8) // 33 has arrived too, but waits behind the refused head
	refuse = -1
	drain(9, "3:31", "3:33")
	occupied()
	if s.idle != 1 {
		t.Errorf("idle = %d; only the first drain found the set empty", s.idle)
	}
	if b, busy, pending := s.totals(); b != 5 || busy != 5 || pending != 0 {
		t.Errorf("totals = %d bytes, %d busy cycles, %d pending; want 5, 5, 0", b, busy, pending)
	}

	var zero linkSet[int]
	zero.drain(g, 1, func(*GPU, int, int, sim.Cycle) bool { t.Error("a zero linkSet offered a message"); return true })
	if b, busy, pending := zero.totals(); b != 0 || busy != 0 || pending != 0 {
		t.Error("a zero linkSet has totals")
	}
}

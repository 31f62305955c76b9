package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestLinks holds Links and Drain to their contract: occupied links
// ascending and arrival order within one, a refused message stays at the
// head and blocks its link, parked — not offered again — until the cycle
// the sink named, a link's bit is set from its first send until the drain
// that empties it, a nil entry (the diagonal of an inter-domain set) is
// never visited, and a zero set drains nothing. Under a park audit the
// parked head is offered every cycle all the same, and one taken before
// its park ended is reported.
func TestLinks(t *testing.T) {
	s := NewLinks[int]("test link", 70) // two occupancy words
	for _, k := range []int{1, 3, 68} {
		// Latency 2, one byte per cycle: a one-byte message sent at
		// cycle c arrives at c+3.
		s.L[k] = NewLink[int](2, 1, 2)
	}

	type sink struct {
		got    *[]string
		refuse int   // the value sink refuses
		until  Cycle // and its bound
	}
	var got []string
	k := &sink{got: &got, refuse: -1}
	offer := func(k *sink, i, v int, _ Cycle) Cycle {
		if v == k.refuse {
			return k.until
		}
		*k.got = append(*k.got, fmt.Sprintf("%d:%d", i, v))
		return Accepted
	}
	drain := func(now Cycle, want ...string) {
		t.Helper()
		got = got[:0]
		Drain(&s, k, now, offer)
		if !slices.Equal(got, want) {
			t.Errorf("drain at %d delivered %v, want %v", now, got, want)
		}
	}
	occupied := func(want ...int) {
		t.Helper()
		var set []int
		for i := range s.L {
			if s.W.Has(i) {
				set = append(set, i)
			}
		}
		if !slices.Equal(set, want) {
			t.Errorf("occupied links %v, want %v", set, want)
		}
	}

	drain(1)
	if s.W.Min() != Never {
		t.Errorf("an empty set's minimum is %d after a drain, want Never", s.W.Min())
	}
	// Sent out of index order; link 3 carries two messages.
	s.Send(68, 1, 680, 1)
	s.Send(3, 1, 30, 1)
	s.Send(1, 1, 10, 1)
	s.Send(3, 2, 31, 1)
	if s.Send(3, 2, 32, 1) {
		t.Error("Send succeeded on a back-pressured link")
	}
	occupied(1, 3, 68)
	drain(3) // nothing has arrived; every bit stays
	occupied(1, 3, 68)
	drain(4, "1:10", "3:30", "68:680")
	occupied(3) // 31 is still in flight on link 3
	k.refuse, k.until = 31, 8
	drain(5)
	occupied(3) // refused: still at the head, bit kept
	s.Send(3, 5, 33, 1)
	if s.W.At(3) != 8 || s.RetryAt(3, 6, 1) != 9 {
		t.Errorf("refused until 8: link 3 wakes at %d; a sender ahead of the drain on the now full link retries at %d, want 9", s.W.At(3), s.RetryAt(3, 6, 1))
	}
	offered := s.Offers
	k.refuse = -1 // the sink would take it now: the park is what holds it
	drain(6)
	drain(7)
	if s.Offers != offered {
		t.Errorf("a head parked until 8 was offered before it: %+v -> %+v", offered, s.Offers)
	}
	drain(8, "3:31", "3:33") // 33 arrived meanwhile, behind the parked head
	occupied()
	if want := (Offers{Offered: 6, Refused: 1}); s.Offers != want {
		t.Errorf("Offers = %+v, want %+v", s.Offers, want)
	}

	// Pop takes an arrived head whatever its park, and leaves the link's
	// wake at its next head's arrival.
	s.Send(68, 9, 681, 1)
	s.Send(68, 10, 682, 1)
	s.W.Set(68, 20)
	if v, ok := s.Pop(68, 12); !ok || v != 681 || s.W.At(68) != 13 {
		t.Errorf("Pop under a park: %d %v, wake %d, want 681 and 13", v, ok, s.W.At(68))
	}
	drain(13, "68:682")

	// The same park under audit: offered every cycle, and reported when the
	// sink takes the head before the park's end.
	var audit ParkAudit
	s.W.Audit = &audit
	s.Send(1, 10, 11, 1)
	k.refuse, k.until = 11, 20
	drain(13)
	drain(14)
	if s.W.At(1) != 20 || s.Offers.Refused != 3 || audit.First() != "" {
		t.Errorf("audited park: wake %d, offers %+v, report %q", s.W.At(1), s.Offers, audit.First())
	}
	k.refuse = -1
	drain(15, "1:11")
	if want := "test link 1: head taken at cycle 15, parked until 20"; audit.First() != want {
		t.Errorf("audit report %q, want %q", audit.First(), want)
	}
	s.W.Audit = nil
	if b, busy, pending := s.Totals(); b != 8 || busy != 8 || pending != 0 {
		t.Errorf("Totals = %d bytes, %d busy cycles, %d pending; want 8, 8, 0", b, busy, pending)
	}
	empty := s.StateSig()
	s.Send(3, 20, 34, 1)
	if s.StateSig() == empty {
		t.Error("StateSig does not see a message in flight")
	}

	var zero Links[int]
	Drain(&zero, t, 1, func(t *testing.T, _, _ int, _ Cycle) Cycle {
		t.Error("a zero Links offered a message")
		return Accepted
	})
	if b, busy, pending := zero.Totals(); b != 0 || busy != 0 || pending != 0 || zero.StateSig() != SigSeed {
		t.Error("a zero Links has totals or a signature")
	}
	if zero.W.Min() != Never {
		t.Errorf("a zero Links is due at %d, want Never", zero.W.Min())
	}
}

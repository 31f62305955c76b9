package sim

import (
	"fmt"
	"strings"
)

// Accepted is what a sink returns for a message it took. Anything else is a
// refusal, and the value is its bound: the earliest cycle at which offering
// the same message again could succeed (DESIGN.md §9 "Parks").
const Accepted Cycle = 0

// Links is an array of links with, per link, an occupancy bit and a wake
// (Wakes): the later of its head's arrival and the end of the park its
// sink's last refusal put the head in. A crossbar's middle and egress
// stages are two, and so is every set of links the core owns outside a
// crossbar. Send is a link's only way in and Drain its only way out (Pop
// serves a receiver that polls instead), so a bit can be neither forgotten
// nor left behind, and Drain passes over an empty or parked link without
// asking it. The zero value is a set of no links: it drains nothing.
type Links[T any] struct {
	L []*Link[T] // nil where the topology has no link
	W Wakes
	// Offers counts the heads offered to the sink and those it refused
	// (accounting, not state).
	Offers Offers
}

// NewLinks returns a set with room for links 0..n-1, none installed,
// named site in audit reports.
func NewLinks[T any](site string, n int) Links[T] {
	return Links[T]{L: make([]*Link[T], n), W: NewWakes(site, n)}
}

// Send puts v on link k, reporting false on back-pressure.
func (s *Links[T]) Send(k int, now Cycle, v T, bytes int) bool {
	if !s.L[k].Send(now, v, bytes) {
		return false
	}
	if !s.W.Has(k) {
		s.W.Set(k, s.L[k].NextReady())
	}
	return true
}

// RetryAt bounds the cycle at which a Send on link k, refused at now, could
// succeed: a full link shows room lag cycles after its own head's wake —
// 0 for a sender that runs after the link's Drain in a cycle, 1 for one
// that runs before it.
func (s *Links[T]) RetryAt(k int, now, lag Cycle) Cycle {
	return s.L[k].RetryAt(now, s.W.At(k)+lag)
}

// Pop takes link k's head if it has arrived by cycle now, parked or not.
func (s *Links[T]) Pop(k int, now Cycle) (T, bool) {
	v, ok := s.L[k].Pop(now)
	if ok {
		s.W.Set(k, s.L[k].NextReady())
	}
	return v, ok
}

// Drain offers every arrived message of s to sink, occupied links in
// ascending order and each link's messages in arrival order. A message sink
// refuses stays at the head of its link, parked until the bound the sink
// returned. It is the one loop that hands a link's heads to a receiver. ctx
// is sink's first argument: a pointer or a small struct of them, with a
// method expression as sink, costs one indirect call a message and
// allocates nothing; a capturing closure as ctx escapes and allocates.
func Drain[T, C any](s *Links[T], ctx C, now Cycle, sink func(ctx C, k int, v T, now Cycle) Cycle) {
	for k := s.W.First(now); k >= 0; {
		l := s.L[k]
		wake, moved := l.NextReady(), false
		for ; wake <= now; wake = l.NextReady() {
			v, _ := l.Peek(now)
			s.Offers.Offered++
			if retry := sink(ctx, k, v, now); retry != Accepted {
				s.Offers.Refused++
				wake = retry
				break
			}
			l.Pop(now)
			moved = true
		}
		k = s.W.Next(k, now, wake, moved)
	}
}

// NextWake is the set's wake hint: its least wake — the earliest head
// arrival or end of park over its links — at least now+1, and Never when
// every link is empty. An empty set costs one compare.
func (s *Links[T]) NextWake(now Cycle) Cycle { return max(s.W.Min(), now+1) }

// Idle reports whether every link is empty.
func (s *Links[T]) Idle() bool { return !s.W.Any() }

// SetAudit installs (or, with nil, removes) the park audit.
func (s *Links[T]) SetAudit(a *ParkAudit) { s.W.Audit = a }

// DebugState names the occupied links for a hang report: how many
// messages each holds, and the end of its head's park.
func (s *Links[T]) DebugState(Cycle) string {
	var b []string
	for k, l := range s.L {
		if !s.W.Has(k) {
			continue
		}
		d := fmt.Sprintf("[%d] pending=%d", k, l.Pending())
		if w := s.W.At(k); w > l.NextReady() {
			d += " parked-until=" + Until(w)
		}
		b = append(b, d)
	}
	return strings.Join(b, " ")
}

// StateSig folds the links' signatures (Link.StateSig).
func (s *Links[T]) StateSig() uint64 {
	h := SigSeed
	for _, l := range s.L {
		if l != nil {
			h = MixSig(h, l.StateSig())
		}
	}
	return h
}

// Totals sums the links' cumulative bytes and busy cycles and the messages
// on them now.
func (s *Links[T]) Totals() (bytes, busyCycles int64, pending int) {
	for _, l := range s.L {
		if l != nil {
			bytes += l.Bytes
			busyCycles += l.BusyCycles
			pending += l.Pending()
		}
	}
	return bytes, busyCycles, pending
}

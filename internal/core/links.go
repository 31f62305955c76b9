package core

import "github.com/nuba-gpu/nuba/internal/sim"

// accepted is what a sink returns for a message it took. Anything else is
// a refusal, and the value is its bound: the earliest cycle at which
// offering the same message again could succeed (DESIGN.md §9 "Parks").
const accepted sim.Cycle = 0

// The two places a sender can stand relative to the fabric phase of step,
// as the lag it hands a receiver's bound: SMs and the SM-request links'
// drain run before the crossbars tick and the other link sets drain, so
// they see a slot a cycle after the fabric frees it; slices run after, and
// see it the same cycle.
const (
	aheadOfFabric sim.Cycle = 1
	behindFabric  sim.Cycle = 0
)

// linkSet is an array of point-to-point links with, per link, an occupancy
// bit and a wake (sim.Wakes): the later of its head's arrival and the end
// of the park its sink's last refusal put the head in. Every link the GPU
// owns outside a crossbar lives in one (GPU.smReq, sliceReply, inter).
// send is a link's only way in and drain its only way out, so a bit can be
// neither forgotten nor left behind, and both drain and the wake scan
// (componentWake) pass over an empty or parked link without asking it. The
// zero value is a set of no links: it drains nothing.
type linkSet[T any] struct {
	l []*sim.Link[T] // nil where the topology has no link
	w sim.Wakes
	// idle counts the drains that found no link occupied, offers the heads
	// offered to the sink and those it refused (EngineStats).
	idle   int64
	offers sim.Offers
}

// newLinkSet returns a set with room for links 0..n-1, none installed,
// named site in audit reports.
func newLinkSet[T any](site string, n int) linkSet[T] {
	return linkSet[T]{l: make([]*sim.Link[T], n), w: sim.NewWakes(site, n)}
}

// add installs link k and registers its g.parts row, which carries the
// link's occupancy word and bit and its wake: the wake scan skips the row
// while the bit is clear and reads the wake without asking the link.
func (s *linkSet[T]) add(g *GPU, k int, l *sim.Link[T], label string, i, j int) {
	s.l[k] = l
	g.register(linkPart[T]{l}, label, i, j)
	p := &g.parts[len(g.parts)-1]
	p.occ, p.bit, p.sleep = s.w.Word(k)
}

// send puts v on link k, reporting false on back-pressure.
func (s *linkSet[T]) send(k int, now sim.Cycle, v T, bytes int) bool {
	if !s.l[k].Send(now, v, bytes) {
		return false
	}
	if !s.w.Has(k) {
		s.w.Set(k, s.l[k].NextReady())
	}
	return true
}

// retryAt bounds the cycle at which a send on link k, refused at now,
// could succeed; a full link shows room lag cycles after its own head's
// wake.
func (s *linkSet[T]) retryAt(k int, now, lag sim.Cycle) sim.Cycle {
	return s.l[k].RetryAt(now, s.w.At(k)+lag)
}

// drain offers every arrived message to sink, occupied links in ascending
// order and each link's messages in arrival order. A message sink refuses
// (back-pressure) stays at the head of its link, parked until the bound
// the sink returned. A sink is a method expression, (*GPU).acceptX, so
// that a message costs one call, not a closure's two.
func (s *linkSet[T]) drain(g *GPU, now sim.Cycle, sink func(g *GPU, k int, v T, now sim.Cycle) sim.Cycle) {
	if !s.w.Any() {
		s.idle++
		return
	}
	for k := s.w.First(now); k >= 0; {
		l := s.l[k]
		wake, moved := l.NextReady(), false
		for ; wake <= now; wake = l.NextReady() {
			v, _ := l.Peek(now)
			s.offers.Offered++
			if retry := sink(g, k, v, now); retry != accepted {
				s.offers.Refused++
				wake = retry
				break
			}
			l.Pop(now)
			moved = true
		}
		k = s.w.Next(k, now, wake, moved)
	}
}

// totals sums the links' cumulative bytes and busy cycles and the
// messages on them now.
func (s *linkSet[T]) totals() (bytes, busyCycles int64, pending int) {
	for _, l := range s.l {
		if l != nil {
			bytes += l.Bytes
			busyCycles += l.BusyCycles
			pending += l.Pending()
		}
	}
	return bytes, busyCycles, pending
}

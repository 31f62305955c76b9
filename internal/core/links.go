package core

import "github.com/nuba-gpu/nuba/internal/sim"

// linkSet is an array of point-to-point links plus one occupancy bit per
// link, set while the link holds a message. Every link the GPU owns
// outside a crossbar lives in one (GPU.smReq, sliceReply, inter). send is
// a link's only way in and drain its only way out, so a bit can be neither
// forgotten nor left behind, and both drain and the wake scan
// (componentWake) pass over an empty link without asking it. The zero
// value is a set of no links: it drains nothing.
type linkSet[T any] struct {
	l   []*sim.Link[T] // nil where the topology has no link
	occ sim.Bits
	// idle counts the drains that found no link occupied (EngineStats).
	idle int64
}

// newLinkSet returns a set with room for links 0..n-1, none installed.
func newLinkSet[T any](n int) linkSet[T] {
	return linkSet[T]{l: make([]*sim.Link[T], n), occ: sim.NewBits(n)}
}

// add installs link k and registers its g.parts row, which carries the
// link's occupancy word and bit: the wake scan skips the row while clear.
func (s *linkSet[T]) add(g *GPU, k int, l *sim.Link[T], label string, i, j int) {
	s.l[k] = l
	g.register(linkPart[T]{l}, label, i, j)
	p := &g.parts[len(g.parts)-1]
	p.occ, p.bit = &s.occ[k>>6], 1<<(uint(k)&63)
}

// send puts v on link k, reporting false on back-pressure.
func (s *linkSet[T]) send(k int, now sim.Cycle, v T, bytes int) bool {
	if !s.l[k].Send(now, v, bytes) {
		return false
	}
	s.occ.Set(k)
	return true
}

// drain offers every arrived message to sink, occupied links in ascending
// order and each link's messages in arrival order. A message sink refuses
// (back-pressure) stays at the head of its link, which is not offered
// again this cycle — Crossbar.Drain's contract. A sink is a method
// expression, (*GPU).acceptX, so that a message costs one call, not a
// closure's two.
func (s *linkSet[T]) drain(g *GPU, now sim.Cycle, sink func(g *GPU, k int, v T, now sim.Cycle) bool) {
	if !s.occ.Any() {
		s.idle++
		return
	}
	for k := s.occ.Next(0); k >= 0; k = s.occ.Next(k + 1) {
		l := s.l[k]
		for {
			v, ok := l.Peek(now)
			if !ok || !sink(g, k, v, now) {
				break
			}
			l.Pop(now)
		}
		if l.Pending() == 0 {
			s.occ.Clear(k)
		}
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

// Package noc models the inter-partition interconnect: the paper's
// hierarchical crossbar — e.g. the 64x64 fabric between 64 L1 caches and
// 64 LLC slices, assembled from 16 8x8 sub-crossbars (8 ingress + 8
// egress) with 4-cycle per-stage latency and 16 B links — plus the
// point-to-point links used inside NUBA partitions and between MCM
// modules.
//
// The hierarchy is modeled structurally: input ports are grouped by
// eight, output ports are grouped by eight, and every (ingress group,
// egress group) pair is connected by one middle link. The middle links
// are where a real hierarchical crossbar loses bandwidth under contention
// — the overhead that motivates NUBA. A Clos-style internal speedup of
// three (MidSpeedup) keeps the fabric near its nominal bandwidth under
// uniform traffic while preserving the contention loss under bursts.
//
// Requests and replies travel on separate fabrics (the core instantiates
// one Crossbar per direction), matching how real GPU NoCs split request
// and response networks to stay deadlock-free.
package noc

import (
	"github.com/nuba-gpu/nuba/internal/sim"
)

// GroupSize is the radix of the component sub-crossbars.
const GroupSize = 8

// MidSpeedup is the internal bandwidth provision of the middle stage.
const MidSpeedup = 3

// Msg is one network message: a memory request or reply en route to the
// component attached to output port Dst.
type Msg struct {
	Req *sim.MemReq
	// Reply distinguishes replies (data toward the SM) from requests.
	Reply bool
	// Dst is the destination output port.
	Dst int
	// Bytes is the on-wire size.
	Bytes int
	// Inval marks SM-side UBA coherence invalidations.
	Inval bool
}

type inPort struct {
	q        *sim.Queue[Msg]
	nextFree sim.Cycle
	busy     int64
	// bytes counts traffic accepted at this port (summed on read by
	// Bytes).
	bytes int64
}

// Crossbar is a hierarchical switch with inPorts input ports and outPorts
// output ports of width bytes/cycle each.
type Crossbar struct {
	width    int
	stageLat sim.Cycle
	inGroups int
	in       []inPort
	// mid[og*inGroups+ig] carries ingress group ig -> egress group og:
	// egress-group-major, so ascending index is stage 2's arbitration
	// order.
	mid []*sim.Link[Msg]
	out []*sim.Link[Msg]
	// Occupancy words, one bit per input queue, middle link and egress
	// link, set while it holds a message. They are maintained where a
	// message enters or leaves (Inject, Tick, pop) and are what Tick,
	// Drain, Pending and NextEvent walk, so an empty carrier costs nothing.
	inOcc, midOcc, outOcc sim.Bits
	// arrival[p] is out[p].NextReady(), sim.Never while the port is empty:
	// a port whose head has not arrived costs Drain and Pop one compare.
	arrival []sim.Cycle
}

// NewCrossbar returns a hierarchical crossbar. latency is the end-to-end
// traversal latency (two stages); buffering is per queue in messages.
func NewCrossbar(inPorts, outPorts, width int, latency sim.Cycle, inBuf, outBuf int) *Crossbar {
	if inPorts <= 0 || outPorts <= 0 || width <= 0 {
		panic("noc: ports and width must be positive")
	}
	ig := (inPorts + GroupSize - 1) / GroupSize
	og := (outPorts + GroupSize - 1) / GroupSize
	stageLat := latency / 2
	if stageLat < 1 {
		stageLat = 1
	}
	wi, wm := sim.BitWords(inPorts), sim.BitWords(ig*og)
	occ := make(sim.Bits, wi+wm+sim.BitWords(outPorts))
	x := &Crossbar{
		width:    width,
		stageLat: stageLat,
		inGroups: ig,
		in:       make([]inPort, inPorts),
		mid:      make([]*sim.Link[Msg], ig*og),
		out:      make([]*sim.Link[Msg], outPorts),
		inOcc:    occ[:wi],
		midOcc:   occ[wi : wi+wm],
		outOcc:   occ[wi+wm:],
		arrival:  make([]sim.Cycle, outPorts),
	}
	for i := range x.in {
		x.in[i].q = sim.NewQueue[Msg](inBuf)
	}
	for i := range x.out {
		x.out[i] = sim.NewLink[Msg](stageLat, width, outBuf)
		x.arrival[i] = sim.Never
	}
	for i := range x.mid {
		x.mid[i] = sim.NewLink[Msg](stageLat, MidSpeedup*width, outBuf)
	}
	return x
}

// InPorts returns the number of input ports.
func (x *Crossbar) InPorts() int { return len(x.in) }

// OutPorts returns the number of output ports.
func (x *Crossbar) OutPorts() int { return len(x.out) }

// CanInject reports whether input port can accept a message at cycle now.
func (x *Crossbar) CanInject(port int, now sim.Cycle) bool {
	p := &x.in[port]
	return p.nextFree <= now && !p.q.Full()
}

// Inject queues m at the given input port, serializing it over the port
// width. It reports whether the message was accepted.
func (x *Crossbar) Inject(port int, now sim.Cycle, m Msg) bool {
	p := &x.in[port]
	if p.nextFree > now || p.q.Full() {
		return false
	}
	ser := sim.Cycle((m.Bytes + x.width - 1) / x.width)
	if ser < 1 {
		ser = 1
	}
	p.nextFree = now + ser
	p.busy += int64(ser)
	p.q.Push(m)
	x.inOcc.Set(port)
	p.bytes += int64(m.Bytes)
	return true
}

// Bytes returns the total payload bytes accepted across all input
// ports.
func (x *Crossbar) Bytes() int64 {
	var t int64
	for i := range x.in {
		t += x.in[i].bytes
	}
	return t
}

// Tick advances both stages by one cycle.
func (x *Crossbar) Tick(now sim.Cycle) {
	// Stage 1: move input heads into the middle links.
	for i := x.inOcc.Next(0); i >= 0; i = x.inOcc.Next(i + 1) {
		p := &x.in[i]
		m, _ := p.q.Peek()
		k := m.Dst/GroupSize*x.inGroups + i/GroupSize
		if x.mid[k].Send(now, m, m.Bytes) {
			x.midOcc.Set(k)
			if p.q.Pop(); p.q.Empty() {
				x.inOcc.Clear(i)
			}
		}
	}
	// Stage 2: drain arrived middle-link heads into the egress links.
	for k := x.midOcc.Next(0); k >= 0; k = x.midOcc.Next(k + 1) {
		link := x.mid[k]
		for {
			m, ok := link.Peek(now)
			if !ok || !x.out[m.Dst].Send(now, m, m.Bytes) {
				break
			}
			link.Pop(now)
			if x.arrival[m.Dst] == sim.Never {
				x.outOcc.Set(m.Dst)
				x.arrival[m.Dst] = x.out[m.Dst].NextReady()
			}
		}
		if link.Pending() == 0 {
			x.midOcc.Clear(k)
		}
	}
}

// Drain offers every delivered message to sink, egress ports in
// ascending order and each port's messages in arrival order. A message
// sink refuses (back-pressure) stays at the head of its port, which is
// not offered again this cycle.
func (x *Crossbar) Drain(now sim.Cycle, sink func(port int, m Msg) bool) {
	for p := x.outOcc.Next(0); p >= 0; p = x.outOcc.Next(p + 1) {
		for x.arrival[p] <= now {
			if m, _ := x.out[p].Peek(now); !sink(p, m) {
				break
			}
			x.pop(p, now)
		}
	}
}

// Pop retrieves the next delivered message at output port, if any has
// arrived by cycle now.
func (x *Crossbar) Pop(port int, now sim.Cycle) (Msg, bool) {
	if x.arrival[port] > now {
		return Msg{}, false
	}
	return x.pop(port, now), true
}

// pop consumes the arrived head of an egress link.
func (x *Crossbar) pop(port int, now sim.Cycle) Msg {
	m, _ := x.out[port].Pop(now)
	if x.arrival[port] = x.out[port].NextReady(); x.arrival[port] == sim.Never {
		x.outOcc.Clear(port)
	}
	return m
}

// Occupancy returns the number of messages buffered at the input stage
// — the congestion probe the tracing layer samples at epoch boundaries.
func (x *Crossbar) Occupancy() int {
	n := 0
	for i := range x.in {
		n += x.in[i].q.Len()
	}
	return n
}

// Occupied returns how many input queues, middle links and egress links
// hold a message: where a wedged crossbar's traffic sits.
func (x *Crossbar) Occupied() (in, mid, out int) {
	return x.inOcc.Count(), x.midOcc.Count(), x.outOcc.Count()
}

// NextEvent returns the crossbar's wake hint. An occupied input queue
// tries its middle link on the very next tick, and so does a head that
// has arrived and was refused: now+1. Otherwise nothing moves before the
// earliest head arrival over the occupied middle and egress links;
// sim.Never when empty.
func (x *Crossbar) NextEvent(now sim.Cycle) sim.Cycle {
	if x.inOcc.Any() {
		return now + 1
	}
	wake := sim.Never
	for k := x.midOcc.Next(0); k >= 0; k = x.midOcc.Next(k + 1) {
		wake = min(wake, x.mid[k].NextReady())
	}
	for p := x.outOcc.Next(0); p >= 0; p = x.outOcc.Next(p + 1) {
		wake = min(wake, x.arrival[p])
	}
	return max(wake, now+1)
}

// StateSig returns a signature of the crossbar's observable state: the
// input-queue depths and port-free times plus the middle- and
// egress-link signatures. Traffic counters (Bytes, busy) are
// accounting, not simulation state, and are excluded.
func (x *Crossbar) StateSig() uint64 {
	h := sim.SigSeed
	for i := range x.in {
		p := &x.in[i]
		h = sim.MixSig(h, uint64(p.q.Len()))
		h = sim.MixSig(h, uint64(p.nextFree))
	}
	for _, l := range x.mid {
		h = sim.MixSig(h, l.StateSig())
	}
	for _, l := range x.out {
		h = sim.MixSig(h, l.StateSig())
	}
	return h
}

// Pending reports whether any message is buffered or in flight.
func (x *Crossbar) Pending() bool {
	return x.inOcc.Any() || x.midOcc.Any() || x.outOcc.Any()
}

// BusyCycles returns total link-serialization cycles (inputs, middle
// links and egress links), the activity input to the NoC power model.
func (x *Crossbar) BusyCycles() int64 {
	var t int64
	for i := range x.in {
		t += x.in[i].busy
	}
	for _, l := range x.out {
		t += l.BusyCycles
	}
	for _, l := range x.mid {
		t += l.BusyCycles
	}
	return t
}

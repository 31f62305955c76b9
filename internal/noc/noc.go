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
	width     int
	stageLat  sim.Cycle
	inGroups  int
	outGroups int
	in        []inPort
	// mid[ig*outGroups+og] carries ingress group ig -> egress group og.
	mid []*sim.Link[Msg]
	out []*sim.Link[Msg]
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
	x := &Crossbar{
		width:     width,
		stageLat:  stageLat,
		inGroups:  ig,
		outGroups: og,
		in:        make([]inPort, inPorts),
		mid:       make([]*sim.Link[Msg], ig*og),
		out:       make([]*sim.Link[Msg], outPorts),
	}
	for i := range x.in {
		x.in[i].q = sim.NewQueue[Msg](inBuf)
	}
	for i := range x.out {
		x.out[i] = sim.NewLink[Msg](stageLat, width, outBuf)
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
	for i := range x.in {
		p := &x.in[i]
		m, ok := p.q.Peek()
		if !ok {
			continue
		}
		ig, og := i/GroupSize, m.Dst/GroupSize
		if x.mid[ig*x.outGroups+og].Send(now, m, m.Bytes) {
			p.q.Pop()
		}
	}
	// Stage 2: drain arrived middle-link heads into the egress links.
	for og := 0; og < x.outGroups; og++ {
		for ig := 0; ig < x.inGroups; ig++ {
			link := x.mid[ig*x.outGroups+og]
			for {
				m, ok := link.Peek(now)
				if !ok {
					break
				}
				if !x.out[m.Dst].Send(now, m, m.Bytes) {
					break
				}
				link.Pop(now)
			}
		}
	}
}

// Pop retrieves the next delivered message at output port, if any has
// arrived by cycle now.
func (x *Crossbar) Pop(port int, now sim.Cycle) (Msg, bool) {
	return x.out[port].Pop(now)
}

// Peek inspects the next delivered message at output port without
// consuming it.
func (x *Crossbar) Peek(port int, now sim.Cycle) (Msg, bool) {
	return x.out[port].Peek(now)
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

// NextEvent returns the crossbar's wake hint: a crossbar holding any
// message moves it between stages on the very next tick, so the hint
// is now+1 while occupied and sim.Never when empty.
func (x *Crossbar) NextEvent(now sim.Cycle) sim.Cycle {
	if x.Pending() {
		return now + 1
	}
	return sim.Never
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
	for i := range x.in {
		if !x.in[i].q.Empty() {
			return true
		}
	}
	for _, l := range x.out {
		if l.Pending() > 0 {
			return true
		}
	}
	for _, l := range x.mid {
		if l.Pending() > 0 {
			return true
		}
	}
	return false
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

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
	"fmt"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// GroupSize is the radix of the component sub-crossbars.
const GroupSize = 8

// MidSpeedup is the internal bandwidth provision of the middle stage.
const MidSpeedup = 3

// Msg is one network message: a memory request or reply en route to the
// component attached to output port Dst. Its two flags share the last
// word, so a Msg is 32 B.
type Msg struct {
	Req *sim.MemReq
	// Dst is the destination output port.
	Dst int
	// Bytes is the on-wire size.
	Bytes int
	// Reply distinguishes replies (data toward the SM) from requests.
	Reply bool
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
	// One occupancy bit and one wake per input queue (sim.Wakes): the end of
	// its head's park at stage 1. Maintained where a message enters or
	// leaves, it is what Tick, Idle and NextWake read, so an empty
	// input costs nothing and a parked one a compare.
	inW sim.Wakes
	// The middle links, Mid.L[og*inGroups+ig] carrying ingress group ig ->
	// egress group og (egress-group-major, so ascending index is stage 2's
	// arbitration order), and the egress links, one per output port. Stage 2
	// drains Mid into Out; the receiver drains Out (sim.Drain).
	Mid, Out sim.Links[Msg]
	// Stage1 counts the heads stage 1 offered and the offers refused
	// (accounting, not state); Mid.Offers and Out.Offers count stage 2's and
	// the egress drain's.
	Stage1 sim.Offers
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
	wi, wm, mids := sim.BitWords(inPorts), sim.BitWords(ig*og), ig*og
	occ := make(sim.Bits, wi+wm+sim.BitWords(outPorts))
	at := make([]sim.Cycle, inPorts+mids+outPorts)
	x := &Crossbar{
		width:    width,
		stageLat: stageLat,
		inGroups: ig,
		in:       make([]inPort, inPorts),
		inW:      sim.NewWakesIn("crossbar input", occ[:wi], at[:inPorts]),
		Mid:      sim.Links[Msg]{L: make([]*sim.Link[Msg], mids), W: sim.NewWakesIn("crossbar middle link", occ[wi:wi+wm], at[inPorts:inPorts+mids])},
		Out:      sim.Links[Msg]{L: make([]*sim.Link[Msg], outPorts), W: sim.NewWakesIn("crossbar egress port", occ[wi+wm:], at[inPorts+mids:])},
	}
	for i := range x.in {
		x.in[i].q = sim.NewQueue[Msg](inBuf)
	}
	for i := range x.Out.L {
		x.Out.L[i] = sim.NewLink[Msg](stageLat, width, outBuf)
	}
	for i := range x.Mid.L {
		x.Mid.L[i] = sim.NewLink[Msg](stageLat, MidSpeedup*width, outBuf)
	}
	return x
}

// SetAudit installs (or, with nil, removes) the park audit on all three
// walks.
func (x *Crossbar) SetAudit(a *sim.ParkAudit) { x.inW.Audit, x.Mid.W.Audit, x.Out.W.Audit = a, a, a }

// Join makes the crossbar's three sets members of d.
func (x *Crossbar) Join(d *sim.Deadline) { d.Join(&x.inW, &x.Mid.W, &x.Out.W) }

// InPorts returns the number of input ports.
func (x *Crossbar) InPorts() int { return len(x.in) }

// OutPorts returns the number of output ports.
func (x *Crossbar) OutPorts() int { return len(x.Out.L) }

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
	if p.q.Push(m); !x.inW.Has(port) {
		x.inW.Set(port, now)
	}
	p.bytes += int64(m.Bytes)
	return true
}

// RetryInject returns a lower bound on the cycle at which an Inject at
// port, refused at cycle now, could succeed: the cycle the port has
// finished serializing its last message and, while the input queue is
// full, lag cycles after stage 1 next offers the queue's head — 0 for an
// injector that runs after Tick in a cycle, 1 for one that runs before it.
// It is a pure observation.
func (x *Crossbar) RetryInject(port int, now, lag sim.Cycle) sim.Cycle {
	p := &x.in[port]
	t := max(p.nextFree, now+1)
	if p.q.Full() {
		t = max(t, x.inW.At(port)+lag)
	}
	return t
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

// Tick advances both stages by one cycle: input heads into the middle
// links, then arrived middle-link heads into the egress links.
func (x *Crossbar) Tick(now sim.Cycle) {
	for i := x.inW.First(now); i >= 0; {
		wake, moved := x.stage1(i, now)
		i = x.inW.Next(i, now, wake, moved)
	}
	sim.Drain(&x.Mid, x, now, (*Crossbar).stage2)
}

// stage1 offers input i's head to its middle link and returns the input's
// next wake. Refused, the head parks: a full middle link shows room the
// cycle after stage 2 — which runs later in the tick — moves that link's
// own head.
func (x *Crossbar) stage1(i int, now sim.Cycle) (wake sim.Cycle, moved bool) {
	p := &x.in[i]
	m, _ := p.q.Peek()
	k := m.Dst/GroupSize*x.inGroups + i/GroupSize
	x.Stage1.Offered++
	if !x.Mid.Send(k, now, m, m.Bytes) {
		x.Stage1.Refused++
		return x.Mid.RetryAt(k, now, 1), false
	}
	if p.q.Pop(); p.q.Empty() {
		return sim.Never, true
	}
	return now + 1, true
}

// stage2 is the middle links' sink: it moves an arrived head into its
// egress link. Refused, the head parks: a full egress link shows room the
// cycle after its own head's wake, the egress drain running after Tick.
func (x *Crossbar) stage2(_ int, m Msg, now sim.Cycle) sim.Cycle {
	if x.Out.Send(m.Dst, now, m, m.Bytes) {
		return sim.Accepted
	}
	return x.Out.RetryAt(m.Dst, now, 1)
}

// Pop retrieves the next delivered message at output port, if any has
// arrived by cycle now.
func (x *Crossbar) Pop(port int, now sim.Cycle) (Msg, bool) { return x.Out.Pop(port, now) }

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
	return x.inW.Count(), x.Mid.W.Count(), x.Out.W.Count()
}

// DebugState is Occupied for a hang report.
func (x *Crossbar) DebugState(sim.Cycle) string {
	in, mid, out := x.Occupied()
	return fmt.Sprintf("in=%d mid=%d out=%d", in, mid, out)
}

// NextWake returns the crossbar's wake hint: the earliest wake over the
// occupied input queues, middle links and egress ports — a head's arrival,
// the end of a refused head's park, the next tick for a head that stands
// unparked — and sim.Never when empty.
func (x *Crossbar) NextWake(now sim.Cycle) sim.Cycle {
	return max(min(x.inW.Min(), x.Mid.W.Min(), x.Out.W.Min()), now+1)
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
	h = sim.MixSig(h, x.Mid.StateSig())
	return sim.MixSig(h, x.Out.StateSig())
}

// Idle reports whether no message is buffered or in flight.
func (x *Crossbar) Idle() bool {
	return !x.inW.Any() && !x.Mid.W.Any() && !x.Out.W.Any()
}

// BusyCycles returns total link-serialization cycles (inputs, middle
// links and egress links), the activity input to the NoC power model.
func (x *Crossbar) BusyCycles() int64 {
	var t int64
	for i := range x.in {
		t += x.in[i].busy
	}
	_, mid, _ := x.Mid.Totals()
	_, out, _ := x.Out.Totals()
	return t + mid + out
}

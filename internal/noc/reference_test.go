package noc

import (
	"fmt"
	"testing"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// The reference crossbar: the fabric as it stood before it kept occupancy
// words — Tick polls every input port and every middle link, the caller
// polls every egress port with Peek and Pop, the wake hint is now+1 while
// anything is held. It is kept, verbatim apart from the ref prefix, as the
// specification TestCrossbarMatchesReference holds Crossbar to: same
// message, same port, same cycle.

type refCrossbar struct {
	width     int
	stageLat  sim.Cycle
	inGroups  int
	outGroups int
	in        []inPort
	// mid[ig*outGroups+og] carries ingress group ig -> egress group og.
	mid []*sim.Link[Msg]
	out []*sim.Link[Msg]
}

func newRefCrossbar(inPorts, outPorts, width int, latency sim.Cycle, inBuf, outBuf int) *refCrossbar {
	if inPorts <= 0 || outPorts <= 0 || width <= 0 {
		panic("noc: ports and width must be positive")
	}
	ig := (inPorts + GroupSize - 1) / GroupSize
	og := (outPorts + GroupSize - 1) / GroupSize
	stageLat := latency / 2
	if stageLat < 1 {
		stageLat = 1
	}
	x := &refCrossbar{
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

func (x *refCrossbar) OutPorts() int { return len(x.out) }

func (x *refCrossbar) CanInject(port int, now sim.Cycle) bool {
	p := &x.in[port]
	return p.nextFree <= now && !p.q.Full()
}

func (x *refCrossbar) Inject(port int, now sim.Cycle, m Msg) bool {
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

func (x *refCrossbar) Bytes() int64 {
	var t int64
	for i := range x.in {
		t += x.in[i].bytes
	}
	return t
}

// Tick advances both stages by one cycle.
func (x *refCrossbar) Tick(now sim.Cycle) {
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

func (x *refCrossbar) Pop(port int, now sim.Cycle) (Msg, bool) {
	return x.out[port].Pop(now)
}

func (x *refCrossbar) Peek(port int, now sim.Cycle) (Msg, bool) {
	return x.out[port].Peek(now)
}

// drain is the egress loop core.moveXbars ran over a crossbar.
func (x *refCrossbar) drain(now sim.Cycle, sink func(port int, m Msg) bool) {
	for p := 0; p < x.OutPorts(); p++ {
		for {
			msg, ok := x.Peek(p, now)
			if !ok || !sink(p, msg) {
				break
			}
			x.Pop(p, now)
		}
	}
}

func (x *refCrossbar) NextEvent(now sim.Cycle) sim.Cycle {
	if x.Pending() {
		return now + 1
	}
	return sim.Never
}

func (x *refCrossbar) Pending() bool {
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

func (x *refCrossbar) BusyCycles() int64 {
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

// checkWords fails unless every occupancy bit is set iff its queue or
// link holds a message, every wake is Never iff its carrier is empty, a
// link's wake is no earlier than its head's arrival, and each set's
// minimum bounds its wakes from below.
func checkWords(t *testing.T, x *Crossbar, after string, now sim.Cycle) {
	t.Helper()
	check := func(set string, w *sim.Wakes, i, held int, arrives sim.Cycle) {
		t.Helper()
		at := w.At(i)
		if w.Has(i) != (held > 0) || (at == sim.Never) != (held == 0) || at < arrives || at < w.Min() {
			t.Fatalf("cycle %d after %s: %s %d: bit %v, wake %d (set minimum %d) with %d held, head arriving at %d",
				now, after, set, i, w.Has(i), at, w.Min(), held, arrives)
		}
	}
	for i := range x.in {
		check("input", &x.inW, i, x.in[i].q.Len(), 0)
	}
	for k, l := range x.Mid.L {
		check("middle link", &x.Mid.W, k, l.Pending(), l.NextReady())
	}
	for p, l := range x.Out.L {
		check("egress port", &x.Out.W, p, l.Pending(), l.NextReady())
	}
	in, mid, out := x.Occupied()
	if x.Idle() != (in+mid+out == 0) {
		t.Fatalf("cycle %d after %s: Idle = %v with in=%d mid=%d out=%d", now, after, x.Idle(), in, mid, out)
	}
}

// checkParks is called with cycle now's injections done and its Tick about
// to run, the state both stages of that Tick will meet: a head parked
// beyond now must be one its link refuses at now. Held on every cycle, that
// is "refused at every cycle before its wake".
func checkParks(t *testing.T, x *Crossbar, now sim.Cycle) {
	t.Helper()
	for i := range x.in {
		if m, ok := x.in[i].q.Peek(); ok && x.inW.At(i) > now {
			if k := m.Dst/GroupSize*x.inGroups + i/GroupSize; x.Mid.L[k].CanSend(now) {
				t.Fatalf("cycle %d: input %d is parked until %d and middle link %d would take its head", now, i, x.inW.At(i), k)
			}
		}
	}
	for k, l := range x.Mid.L {
		if m, ok := l.Peek(now); ok && x.Mid.W.At(k) > now && x.Out.L[m.Dst].CanSend(now) {
			t.Fatalf("cycle %d: middle link %d is parked until %d and egress link %d would take its head", now, k, x.Mid.W.At(k), m.Dst)
		}
	}
}

type delivery struct {
	cycle sim.Cycle
	port  int
	id    uint32
}

// Crossbar against the reference under the same seeded traffic: the same
// (cycle, port, request) delivery sequence through a sink that refuses a
// seeded share of its offers (naming the next cycle, as the reference
// retries every cycle), the same accounting, and coherent words after
// every operation that can move a message.
func TestCrossbarMatchesReference(t *testing.T) {
	const (
		width, latency, buf = 16, 8, 8
		cycles              = 1500
		refusePct           = 30
		hotPort             = 3
	)
	for _, geo := range []struct{ in, out int }{{16, 16}, {64, 64}, {16, 8}} {
		for _, load := range []int{10, 50, 90} {
			for _, hot := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/load%d/hot=%v", geo.in, geo.out, load, hot)
				t.Run(name, func(t *testing.T) {
					seed := sim.Mix(uint64(geo.in<<16 | geo.out<<8 | load))
					rng := sim.NewRNG(seed)
					x := NewCrossbar(geo.in, geo.out, width, latency, buf, buf)
					ref := newRefCrossbar(geo.in, geo.out, width, latency, buf, buf)
					var got, want []delivery
					var now sim.Cycle
					// The sink's verdict is a function of what it is offered, so
					// both sides meet the same back-pressure for the same offer.
					refuses := func(p int, m Msg) bool {
						return sim.Mix(seed^uint64(now)<<24^uint64(p)<<16^uint64(m.Req.ID))%100 < refusePct
					}
					sink := func(log *[]delivery) func(int, Msg) bool {
						return func(p int, m Msg) bool {
							if refuses(p, m) {
								return false
							}
							*log = append(*log, delivery{now, p, m.Req.ID})
							return true
						}
					}
					gotSink, wantSink := sink(&got), sink(&want)
					var id uint32
					for now = 1; now <= cycles || ref.Pending(); now++ {
						if now > 20*cycles {
							t.Fatal("reference never drained")
						}
						for in := 0; in < geo.in && now <= cycles; in++ {
							if x.CanInject(in, now) != ref.CanInject(in, now) {
								t.Fatalf("cycle %d: CanInject(%d) = %v, reference %v", now, in, x.CanInject(in, now), ref.CanInject(in, now))
							}
							v := rng.Uint64()
							if int(v%100) >= load {
								continue
							}
							m := Msg{Req: &sim.MemReq{ID: id}, Dst: int(v >> 40 % uint64(geo.out)), Bytes: sim.ReqBytes}
							id++
							if v>>32&1 == 1 {
								m.Bytes = sim.DataBytes
							}
							if hot && v>>33&1 == 1 {
								m.Dst = hotPort
							}
							ok := x.Inject(in, now, m)
							if ok != ref.Inject(in, now, m) {
								t.Fatalf("cycle %d: Inject(%d) = %v, reference disagrees", now, in, ok)
							}
							checkWords(t, x, "Inject", now)
						}
						checkParks(t, x, now)
						x.Tick(now)
						ref.Tick(now)
						checkWords(t, x, "Tick", now)
						// Some cycles one port is popped directly, as
						// bench/layers.go and the unit tests do.
						if now%5 == 0 {
							p := int(now/5) % geo.out
							m, ok := x.Pop(p, now)
							rm, rok := ref.Pop(p, now)
							if ok != rok || ok && m.Req != rm.Req {
								t.Fatalf("cycle %d: Pop(%d) = %v %v, reference %v %v", now, p, m.Req, ok, rm.Req, rok)
							}
							checkWords(t, x, "Pop", now)
						}
						drain(x, now, gotSink)
						ref.drain(now, wantSink)
						checkWords(t, x, "Drain", now)
						if len(got) != len(want) {
							t.Fatalf("cycle %d: %d messages delivered, reference %d", now, len(got), len(want))
						}
						if x.Idle() == ref.Pending() {
							t.Fatalf("cycle %d: Idle = %v, reference pending %v", now, x.Idle(), ref.Pending())
						}
						if w := x.NextWake(now); w < now+1 || (w == sim.Never) != (ref.NextEvent(now) == sim.Never) {
							t.Fatalf("cycle %d: NextWake = %d, reference %d", now, w, ref.NextEvent(now))
						}
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("delivery %d: got %+v, reference %+v", i, got[i], want[i])
						}
					}
					if len(want) < 500 {
						t.Fatalf("only %d deliveries: the traffic does not exercise the fabric", len(want))
					}
					if x.BusyCycles() != ref.BusyCycles() || x.Bytes() != ref.Bytes() {
						t.Fatalf("accounting: busy=%d bytes=%d, reference busy=%d bytes=%d", x.BusyCycles(), x.Bytes(), ref.BusyCycles(), ref.Bytes())
					}
				})
			}
		}
	}
}

// The wake hint of a crossbar carrying one message: the next tick while
// it sits at the input, then its middle-link arrival, then its egress
// arrival, the next tick again while a sink refuses it naming no later
// cycle, the end of the park a sink's bound puts it in, and never once it
// is gone. Nothing moves between those cycles, which is what lets the
// hybrid engine skip the flight and the park.
func TestCrossbarHintIsEarliestArrival(t *testing.T) {
	const width, stageLat = 16, 4
	x := NewCrossbar(16, 16, width, 2*stageLat, 8, 8)
	if got := x.NextWake(9); got != sim.Never {
		t.Fatalf("empty crossbar: NextWake = %d, want never", got)
	}
	if !x.Inject(0, 10, msg(9, sim.ReqBytes)) {
		t.Fatal("inject rejected")
	}
	if got := x.NextWake(10); got != 11 {
		t.Fatalf("message at the input: NextWake = %d, want 11", got)
	}
	refuse := func(int, Msg) bool { return false }
	// idleUntil ticks and drains through (from, until) and requires that
	// the hint stays at until and no state changes.
	idleUntil := func(from, until sim.Cycle) {
		t.Helper()
		sig := x.StateSig()
		for now := from; now < until; now++ {
			x.Tick(now)
			drain(x, now, func(int, Msg) bool { t.Fatalf("cycle %d: delivered in flight", now); return true })
			if got := x.NextWake(now); got != until || x.StateSig() != sig {
				t.Fatalf("cycle %d: NextWake = %d (want %d), state changed = %v", now, got, until, x.StateSig() != sig)
			}
		}
	}
	// One flit on either link: one cycle of serialization plus the stage.
	x.Tick(11)
	atMid := sim.Cycle(11 + 1 + stageLat)
	if in, mid, out := x.Occupied(); in != 0 || mid != 1 || out != 0 {
		t.Fatalf("after stage 1: in=%d mid=%d out=%d", in, mid, out)
	}
	if got := x.NextWake(11); got != atMid {
		t.Fatalf("on the middle link: NextWake = %d, want its arrival %d", got, atMid)
	}
	idleUntil(12, atMid)
	x.Tick(atMid)
	atOut := atMid + 1 + stageLat
	if in, mid, out := x.Occupied(); in != 0 || mid != 0 || out != 1 {
		t.Fatalf("after stage 2: in=%d mid=%d out=%d", in, mid, out)
	}
	if got := x.NextWake(atMid); got != atOut {
		t.Fatalf("on the egress link: NextWake = %d, want its arrival %d", got, atOut)
	}
	idleUntil(atMid+1, atOut)
	for now := atOut; now < atOut+3; now++ {
		x.Tick(now)
		drain(x, now, refuse)
		if got := x.NextWake(now); got != now+1 {
			t.Fatalf("cycle %d, head refused: NextWake = %d, want %d", now, got, now+1)
		}
	}
	parked, until := atOut+3, atOut+8
	sim.Drain(&x.Out, until, parked, func(until sim.Cycle, _ int, _ Msg, _ sim.Cycle) sim.Cycle { return until })
	if got := x.NextWake(parked); got != until {
		t.Fatalf("cycle %d, head refused until %d: NextWake = %d", parked, until, got)
	}
	idleUntil(parked+1, until)
	delivered := 0
	drain(x, until, func(p int, m Msg) bool { delivered++; return p == 9 })
	if delivered != 1 || !x.Idle() || x.NextWake(until) != sim.Never {
		t.Fatalf("after delivery: delivered=%d idle=%v NextWake=%d", delivered, x.Idle(), x.NextWake(until))
	}
}

// BenchmarkCrossbarTick is one cycle of the 16x16 slice-to-slice crossbar
// of the scale-0.25 NUBA GPU — offer, Tick, drain — with each input port
// kept busy the given share of cycles (the generator of bench/layers.go's
// noc.tick_load rows, plus the idle fabric that ledger has no row for), and
// then the case no uniform load reaches: hotspot, every input offering
// line-sized messages to the one egress group of ports 0–7, so that two
// middle links and eight egress links carry sixteen inputs' traffic and
// both stages' heads are refused on most cycles.
func BenchmarkCrossbarTick(b *testing.B) {
	const ports, width, latency, buf = 16, 16, 8, 8
	ser := func(bytes int) float64 { return float64((bytes + width - 1) / width) }
	meanSer := (ser(sim.ReqBytes) + ser(sim.DataBytes)) / 2
	req := &sim.MemReq{}
	for _, load := range []float64{0, 0.10, 0.50, 0.90} {
		b.Run(fmt.Sprintf("load%d", int(100*load)), func(b *testing.B) {
			threshold := uint64(load / (meanSer - load*meanSer + load) * (1 << 32))
			rng := sim.NewRNG(1)
			x := NewCrossbar(ports, ports, width, latency, buf, buf)
			delivered := 0
			b.ReportAllocs()
			b.ResetTimer()
			for now := sim.Cycle(1); now <= sim.Cycle(b.N); now++ {
				for in := 0; in < ports && load > 0; in++ {
					if !x.CanInject(in, now) {
						continue
					}
					v := rng.Uint64()
					if v&0xffffffff >= threshold {
						continue
					}
					bytes := sim.ReqBytes
					if v>>32&1 == 1 {
						bytes = sim.DataBytes
					}
					x.Inject(in, now, Msg{Req: req, Dst: int(v >> 40 % ports), Bytes: bytes})
				}
				x.Tick(now)
				sim.Drain(&x.Out, &delivered, now, count)
			}
			if load > 0 && b.N > 1000 && delivered == 0 {
				b.Fatal("nothing delivered")
			}
		})
	}
	b.Run("hotspot", func(b *testing.B) {
		rng := sim.NewRNG(1)
		x := NewCrossbar(ports, ports, width, latency, buf, buf)
		delivered := 0
		b.ReportAllocs()
		b.ResetTimer()
		for now := sim.Cycle(1); now <= sim.Cycle(b.N); now++ {
			for in := 0; in < ports; in++ {
				if x.CanInject(in, now) {
					x.Inject(in, now, Msg{Req: req, Dst: int(rng.Uint64() % GroupSize), Bytes: sim.DataBytes})
				}
			}
			x.Tick(now)
			sim.Drain(&x.Out, &delivered, now, count)
		}
		if b.N > 1000 && delivered == 0 {
			b.Fatal("nothing delivered")
		}
	})
}

// count is the benchmarks' egress sink: it takes every message, counting.
func count(n *int, _ int, _ Msg, _ sim.Cycle) sim.Cycle {
	*n++
	return sim.Accepted
}

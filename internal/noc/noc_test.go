package noc

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/sim"
)

func msg(dst, bytes int) Msg {
	return Msg{Req: &sim.MemReq{}, Dst: dst, Bytes: bytes}
}

// drain offers x's delivered messages to a sink that names no bound: a
// message it refuses is offered again the next cycle.
func drain(x *Crossbar, now sim.Cycle, sink func(port int, m Msg) bool) {
	sim.Drain(&x.Out, sink, now, func(sink func(int, Msg) bool, p int, m Msg, now sim.Cycle) sim.Cycle {
		if sink(p, m) {
			return sim.Accepted
		}
		return now + 1
	})
}

func tickAndDrain(x *Crossbar, from, to sim.Cycle, got map[int]int) {
	for now := from; now <= to; now++ {
		x.Tick(now)
		for p := 0; p < x.OutPorts(); p++ {
			for {
				m, ok := x.Pop(p, now)
				if !ok {
					break
				}
				got[p]++
				_ = m
			}
		}
	}
}

func TestDeliveryAcrossGroups(t *testing.T) {
	x := NewCrossbar(64, 64, 16, 8, 8, 8)
	if !x.Inject(0, 0, msg(63, 8)) {
		t.Fatal("inject rejected")
	}
	got := map[int]int{}
	tickAndDrain(x, 0, 50, got)
	if got[63] != 1 {
		t.Fatalf("message not delivered: %v", got)
	}
	if !x.Idle() {
		t.Fatal("still pending after delivery")
	}
}

func TestDeliveryWithinGroup(t *testing.T) {
	x := NewCrossbar(64, 64, 16, 8, 8, 8)
	x.Inject(1, 0, msg(2, 8))
	got := map[int]int{}
	tickAndDrain(x, 0, 50, got)
	if got[2] != 1 {
		t.Fatalf("intra-group message lost: %v", got)
	}
}

func TestInjectionSerialization(t *testing.T) {
	x := NewCrossbar(8, 8, 16, 8, 8, 8)
	// A 136 B message occupies the input for 9 cycles.
	if !x.Inject(0, 0, msg(7, 136)) {
		t.Fatal("first inject rejected")
	}
	if x.CanInject(0, 4) {
		t.Fatal("input free too early")
	}
	if !x.CanInject(0, 9) {
		t.Fatal("input not free after serialization")
	}
}

func TestPerFlowOrdering(t *testing.T) {
	x := NewCrossbar(64, 64, 16, 64, 64, 64)
	// Tag messages via the request ID.
	for i := 0; i < 10; i++ {
		m := Msg{Req: &sim.MemReq{ID: uint32(i)}, Dst: 40, Bytes: 8}
		ok := false
		for now := sim.Cycle(i * 10); now < sim.Cycle(i*10+10); now++ {
			if x.Inject(3, now, m) {
				ok = true
				break
			}
			x.Tick(now)
		}
		if !ok {
			t.Fatalf("inject %d failed", i)
		}
	}
	var seen []uint32
	for now := sim.Cycle(0); now < 500; now++ {
		x.Tick(now)
		for {
			m, ok := x.Pop(40, now)
			if !ok {
				break
			}
			seen = append(seen, m.Req.ID)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("delivered %d/10", len(seen))
	}
	for i, id := range seen {
		if id != uint32(i) {
			t.Fatalf("reordered: %v", seen)
		}
	}
}

func TestBandwidthConservation(t *testing.T) {
	// Uniform random-ish traffic cannot exceed aggregate port bandwidth.
	x := NewCrossbar(64, 64, 16, 8, 8, 8)
	delivered := 0
	const cycles = 2000
	for now := sim.Cycle(0); now < cycles; now++ {
		for p := 0; p < 64; p++ {
			dst := (p*13 + int(now)*7) % 64
			x.Inject(p, now, msg(dst, 136))
		}
		x.Tick(now)
		for p := 0; p < 64; p++ {
			for {
				if _, ok := x.Pop(p, now); !ok {
					break
				}
				delivered++
			}
		}
	}
	maxBytes := int64(cycles) * 64 * 16
	if int64(delivered)*136 > maxBytes {
		t.Fatalf("over-delivered: %d messages", delivered)
	}
	// And it should achieve a decent fraction of nominal bandwidth.
	if float64(delivered*136) < 0.4*float64(maxBytes) {
		t.Fatalf("under-delivered badly: %d messages (%.0f%% of nominal)",
			delivered, 100*float64(delivered*136)/float64(maxBytes))
	}
}

func TestHotspotContention(t *testing.T) {
	// All inputs target one output: delivery rate collapses to one
	// output port's bandwidth.
	x := NewCrossbar(64, 64, 16, 8, 8, 8)
	delivered := 0
	const cycles = 1000
	for now := sim.Cycle(0); now < cycles; now++ {
		for p := 0; p < 64; p++ {
			x.Inject(p, now, msg(5, 136))
		}
		x.Tick(now)
		for {
			if _, ok := x.Pop(5, now); !ok {
				break
			}
			delivered++
		}
	}
	// One 16 B port can carry at most cycles*16/136 messages.
	if limit := cycles * 16 / 136; delivered > limit+2 {
		t.Fatalf("hotspot over-delivered: %d > %d", delivered, limit)
	}
}

func TestAsymmetricPorts(t *testing.T) {
	x := NewCrossbar(32, 64, 16, 8, 8, 8)
	if x.InPorts() != 32 || x.OutPorts() != 64 {
		t.Fatal("port counts wrong")
	}
	x.Inject(31, 0, msg(63, 8))
	got := map[int]int{}
	tickAndDrain(x, 0, 50, got)
	if got[63] != 1 {
		t.Fatal("asymmetric delivery failed")
	}
}

func TestBusyCyclesAccumulate(t *testing.T) {
	x := NewCrossbar(16, 16, 16, 8, 8, 8)
	x.Inject(0, 0, msg(15, 136))
	got := map[int]int{}
	tickAndDrain(x, 0, 100, got)
	if x.BusyCycles() == 0 || x.Bytes() != 136 {
		t.Fatalf("stats: busy=%d bytes=%d", x.BusyCycles(), x.Bytes())
	}
}

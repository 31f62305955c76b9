package dram

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

func newChan(t *testing.T) (*Channel, *addrmap.Mapper, *config.Config) {
	t.Helper()
	cfg := config.Baseline()
	m := addrmap.New(&cfg)
	return NewChannel(0, &cfg, m), m, &cfg
}

// addrForBankRow scans addresses until one maps to the wanted bank.
func addrInBank(m *addrmap.Mapper, bank int, start uint64) uint64 {
	for a := start; ; a += addrmap.RowBytes {
		if m.Bank(a) == bank {
			return a
		}
	}
}

func runUntil(ch *Channel, from, to int64) {
	for now := from; now <= to; now++ {
		ch.Tick(now)
	}
}

func TestReadCompletes(t *testing.T) {
	ch, _, _ := newChan(t)
	var got *sim.MemReq
	ch.Respond = func(r *sim.MemReq) { got = r }
	req := &sim.MemReq{Kind: sim.Load, Addr: 0x1000}
	if !ch.Enqueue(req) {
		t.Fatal("enqueue rejected")
	}
	runUntil(ch, 0, 200)
	if got != req {
		t.Fatal("read never completed")
	}
	if ch.Reads != 1 || ch.RowMisses != 1 || ch.RowHits != 0 {
		t.Fatalf("counters: reads=%d hits=%d misses=%d", ch.Reads, ch.RowHits, ch.RowMisses)
	}
	if !ch.Idle() {
		t.Fatal("channel still pending after drain")
	}
}

func TestWriteCompletesSilently(t *testing.T) {
	ch, _, _ := newChan(t)
	called := false
	ch.Respond = func(*sim.MemReq) { called = true }
	ch.Enqueue(&sim.MemReq{Kind: sim.Store, Addr: 0x2000})
	runUntil(ch, 0, 200)
	if called {
		t.Fatal("store produced a response")
	}
	if ch.Writes != 1 {
		t.Fatalf("writes=%d", ch.Writes)
	}
}

func TestRowHitVsMissLatency(t *testing.T) {
	ch, m, _ := newChan(t)
	var doneAt []int64
	now := int64(0)
	ch.Respond = func(*sim.MemReq) { doneAt = append(doneAt, now) }

	base := addrInBank(m, 3, 0x10000)
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: base})
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: base + 128}) // same row
	for ; now < 300 && len(doneAt) < 2; now++ {
		ch.Tick(now)
	}
	if len(doneAt) != 2 {
		t.Fatal("reads did not finish")
	}
	firstLatency := doneAt[0]
	hitGap := doneAt[1] - doneAt[0]
	// The first read pays ACT(tRCD)+CAS(tCL)+burst; the second only the
	// bus gap (row hit).
	if firstLatency < int64(14) { // tRCD+tCL at least
		t.Fatalf("first access too fast: %d", firstLatency)
	}
	if hitGap > 6 {
		t.Fatalf("row hit gap too large: %d", hitGap)
	}
	if ch.RowHits != 1 || ch.RowMisses != 1 {
		t.Fatalf("hit/miss = %d/%d", ch.RowHits, ch.RowMisses)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	ch, m, _ := newChan(t)
	var order []uint64
	ch.Respond = func(r *sim.MemReq) { order = append(order, r.Addr) }

	bankA := addrInBank(m, 1, 0x100000)
	// Open bankA's row with request 1; then queue a conflicting row in
	// the same bank (request 2) and a row hit (request 3). FR-FCFS must
	// serve 3 before 2.
	conflict := bankA
	for {
		conflict += addrmap.RowBytes
		if m.Bank(conflict) == 1 {
			break
		}
	}
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: bankA})
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: conflict})
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: bankA + 256})
	runUntil(ch, 0, 500)
	if len(order) != 3 {
		t.Fatalf("finished %d", len(order))
	}
	if order[1] != bankA+256 {
		t.Fatalf("row hit not prioritized: order %#x", order)
	}
}

func TestBankLevelParallelism(t *testing.T) {
	// Requests to different banks should overlap: total time for 8
	// row-miss reads across 8 banks must be far less than 8 serial tRC.
	ch, m, cfg := newChan(t)
	n := 0
	ch.Respond = func(*sim.MemReq) { n++ }
	for b := 0; b < 8; b++ {
		ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: addrInBank(m, b, 0x200000)})
	}
	var now int64
	for now = 0; n < 8 && now < 1000; now++ {
		ch.Tick(now)
	}
	serial := int64(8 * cfg.Timing.TRC)
	if now >= serial {
		t.Fatalf("no bank parallelism: %d cycles for 8 banks (serial=%d)", now, serial)
	}
}

func TestQueueCapacity(t *testing.T) {
	ch, _, cfg := newChan(t)
	for i := 0; i < cfg.MemQueueDepth; i++ {
		if !ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: uint64(i) * 128}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if ch.CanEnqueue() {
		t.Fatal("full queue claims capacity")
	}
	if ch.Enqueue(&sim.MemReq{Kind: sim.Load}) {
		t.Fatal("overflow accepted")
	}
}

func TestThroughputBoundedByBus(t *testing.T) {
	// Stream row-hit reads: sustained throughput cannot exceed one line
	// per burst (2 mem cycles).
	ch, _, _ := newChan(t)
	n := 0
	ch.Respond = func(*sim.MemReq) { n++ }
	addr := uint64(0x400000)
	issued := 0
	var now int64
	for now = 0; now < 2000; now++ {
		for ch.CanEnqueue() && issued < 900 {
			ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: addr})
			addr += 128
			issued++
		}
		ch.Tick(now)
	}
	maxLines := int(2000 / 2)
	if n > maxLines {
		t.Fatalf("bus over-delivered: %d lines in 2000 mem cycles", n)
	}
	if n < 500 {
		t.Fatalf("throughput too low: %d lines in 2000 mem cycles", n)
	}
}

func TestUtilizationCounter(t *testing.T) {
	ch, _, _ := newChan(t)
	ch.Respond = func(*sim.MemReq) {}
	ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: 0})
	runUntil(ch, 0, 100)
	if b := ch.BusyCycles; b <= 0 || b > 100 {
		t.Fatalf("data bus busy %d of 100 memory cycles", b)
	}
}

// Enqueue is the one door work reaches a channel through, and it must
// clear the sleep deadline (DESIGN.md §9 "Sleep deadlines"): a channel
// the core has stopped ticking and that Enqueue does not wake never
// issues the request. A table of one, like its siblings in llc and
// smcore. The deadline is in core cycles, and it is the channel's hint:
// while requests are queued, the next memory-clock boundary.
func TestDoorsWake(t *testing.T) {
	for _, tc := range []struct {
		door string
		open func(ch *Channel)
	}{
		{"Enqueue", func(ch *Channel) { ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: 0x3000}) }},
	} {
		t.Run(tc.door, func(t *testing.T) {
			ch, _, cfg := newChan(t)
			ch.Respond = func(*sim.MemReq) {}
			div := sim.Cycle(cfg.MemClockDiv)
			// Drained: asleep for ever. With a burst in flight: asleep
			// until the core cycle its completion lands on.
			ch.Tick(0)
			if d := ch.Sleep().At(); d != sim.Never {
				t.Fatalf("drained channel asleep until %d, want Never", d)
			}
			ch.Enqueue(&sim.MemReq{Kind: sim.Load, Addr: 0x1000})
			mem := int64(1)
			for ; ch.Sleep().At() <= (mem+1)*div; mem++ {
				if mem > 1000 {
					t.Fatal("channel never went to sleep")
				}
				ch.Tick(mem)
				if d, w := ch.Sleep().At(), ch.NextWake(mem*div); ch.busy != 0 && (d != (mem+1)*div || w != d) {
					t.Fatalf("requests queued at memory cycle %d: asleep until %d, hint %d, want both %d", mem, d, w, (mem+1)*div)
				}
			}
			if d := ch.Sleep().At(); d == sim.Never || d%div != 0 {
				t.Fatalf("burst in flight: asleep until %d, want a memory-clock boundary", d)
			}
			tc.open(ch)
			if d := ch.Sleep().At(); d > mem*div {
				t.Fatalf("%s left the channel asleep until core cycle %d at %d", tc.door, d, mem*div)
			}
		})
	}
}

// A refused Enqueue's bound (DESIGN.md §9 "Parks") must never be late and
// should seldom be early: a sender that step runs ahead of the channels —
// a slice, an inter-half link's drain — keeps a seeded mix of reads and
// writes queued against a channel it fills, and every core cycle on which
// it is refused, RetryAt's answer is compared with the cycle it is in fact
// next accepted.
func TestRetryAtBoundsTheNextFreeSlot(t *testing.T) {
	ch, _, cfg := newChan(t)
	ch.Respond = func(*sim.MemReq) {}
	div := sim.Cycle(cfg.MemClockDiv)
	rng := sim.NewRNG(7)
	next := func() *sim.MemReq {
		v := rng.Uint64()
		kind := sim.Load
		if v&3 == 0 {
			kind = sim.Store
		}
		// A few rows of a few banks: row hits, conflicts and closed banks.
		return &sim.MemReq{Kind: kind, Addr: (v >> 8 % 64) * addrmap.RowBytes / 4}
	}
	var bounds []sim.Cycle // of the refusals since the last acceptance
	refused, exact := 0, 0
	req := next()
	for now := sim.Cycle(1); now <= 40_000; now++ {
		// The sender's phase of step, then the channel's.
		if ch.Enqueue(req) {
			for _, b := range bounds {
				if b > now {
					t.Fatalf("cycle %d: accepted, but a refusal had said not before %d", now, b)
				}
				if b == now {
					exact++
				}
			}
			refused += len(bounds)
			bounds = bounds[:0]
			req = next()
		} else {
			bounds = append(bounds, ch.RetryAt(now))
		}
		if now%div == 0 {
			ch.Tick(int64(now / div))
		}
	}
	if refused < 10_000 || 5*exact < 4*refused {
		t.Errorf("%d refusals, %d of them bounded by the very cycle of the next acceptance; want the queue held full and the bound exact four times in five", refused, exact)
	}
}

package dram

import (
	"fmt"
	"sort"
	"testing"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// The differential test: Channel and the reference scheduler
// (reference_test.go) are fed the same seeded request stream and must
// agree, every memory cycle, on everything a command changes — which
// request left the queue, every bank's row and timers, the bus and
// bank-group trackers, the counters, what was answered — and on
// StateSig and NextEvent. Agreement on bank state and queue order each
// cycle is agreement on the command issued that cycle.

// viewNew and viewRef render a channel's scheduling state as a
// comparable string; a row's opener is named by request id in both. The
// channel's queue is its banks' lists merged in arrival (seq) order.
func viewNew(c *Channel) string {
	s := fmt.Sprintf("bus=%d act=%d/%d cas=%d/%d wr=%d/%d r=%d w=%d hit=%d miss=%d busy=%d grp=%v full=%d q=[",
		c.busFreeAt, c.lastActAt, c.lastActGroup, c.lastCASAt, c.lastCASGroup, c.lastWrEndAt, c.lastWrGroup,
		c.Reads, c.Writes, c.RowHits, c.RowMisses, c.BusyCycles, c.groupBusy, c.stallFull)
	var queue []*entry
	for i := range c.banks {
		for p := c.banks[i].head; p != none; p = c.slots[p].next {
			queue = append(queue, &c.slots[p])
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].seq < queue[j].seq })
	bySeq := map[uint64]uint32{}
	for _, e := range queue {
		s += fmt.Sprintf("%d ", e.req.ID)
		bySeq[e.seq] = e.req.ID
	}
	s += "] banks="
	for i := range c.banks {
		b := &c.banks[i]
		opener := uint32(0)
		if b.openedFor != 0 {
			opener = bySeq[b.openedFor]
		}
		s += fmt.Sprintf("{%v %d %d %d %d o=%d}", b.rowOpen, b.row, b.readyAct, b.readyCAS, b.readyPre, opener)
	}
	s += fmt.Sprintf(" faw=%v", c.fawOK(1<<40))
	return s
}

func viewRef(c *refChannel) string {
	s := fmt.Sprintf("bus=%d act=%d/%d cas=%d/%d wr=%d/%d r=%d w=%d hit=%d miss=%d busy=%d grp=%v full=%d q=[",
		c.busFreeAt, c.lastActAt, c.lastActGroup, c.lastCASAt, c.lastCASGroup, c.lastWrEndAt, c.lastWrGroup,
		c.Reads, c.Writes, c.RowHits, c.RowMisses, c.BusyCycles, c.groupBusy, c.stallFull)
	for i := 0; i < c.queue.Len(); i++ {
		s += fmt.Sprintf("%d ", c.queue.At(i).ID)
	}
	s += "] banks="
	for i := range c.banks {
		b := &c.banks[i]
		opener := uint32(0)
		if b.openedFor != nil {
			opener = b.openedFor.ID
		}
		s += fmt.Sprintf("{%v %d %d %d %d o=%d}", b.rowOpen, b.row, b.readyAct, b.readyCAS, b.readyPre, opener)
	}
	s += fmt.Sprintf(" faw=%v", c.fawOK(1<<40))
	return s
}

// stream describes one seeded traffic shape.
type stream struct {
	name string
	// rows is how many distinct DRAM rows addresses are drawn from: few
	// rows means row hits, many means scattered conflicts.
	rows uint64
	// storePct is the share of stores; offerPct the chance a request is
	// offered on a memory cycle the queue has room (100 keeps it full,
	// a small value keeps it near-empty).
	storePct, offerPct uint64
	// depth and banks override MemQueueDepth and BanksPerChan when set.
	depth, banks int
}

var referenceStreams = []stream{
	{name: "row-hit-heavy", rows: 4, storePct: 0, offerPct: 100},
	{name: "scattered", rows: 1 << 16, storePct: 0, offerPct: 100},
	{name: "mixed-read-write", rows: 64, storePct: 40, offerPct: 100},
	{name: "write-heavy", rows: 16, storePct: 90, offerPct: 70},
	{name: "near-empty", rows: 256, storePct: 25, offerPct: 6},
	{name: "bursty", rows: 32, storePct: 30, offerPct: 35},
	{name: "shallow-queue", rows: 128, storePct: 30, offerPct: 100, depth: 2},
	{name: "one-group", rows: 128, storePct: 30, offerPct: 100, banks: 2},
	{name: "max-banks", rows: 1 << 12, storePct: 20, offerPct: 100, banks: 64},
}

func TestSchedulerMatchesReference(t *testing.T) {
	for _, st := range referenceStreams {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", st.name, seed), func(t *testing.T) {
				diffRun(t, st, seed, 4000)
			})
		}
	}
}

// FuzzSchedulerMatchesReference searches the stream space the table above
// samples: any row count up to 65536, store and offer shares, queue depth
// and bank count 1–64, any seed. Values out of range wrap into it, so
// every input is a valid stream; the seed corpus is the table's streams.
// `make fuzz` runs it beyond the corpus.
func FuzzSchedulerMatchesReference(f *testing.F) {
	for i, st := range referenceStreams {
		depth, banks := st.depth, st.banks
		if depth == 0 {
			depth = 64
		}
		if banks == 0 {
			banks = 16
		}
		f.Add(st.rows, uint8(st.storePct), uint8(st.offerPct), uint8(depth), uint8(banks), uint64(i+1))
	}
	f.Fuzz(func(t *testing.T, rows uint64, storePct, offerPct, depth, banks uint8, seed uint64) {
		st := stream{
			name:     "fuzz",
			rows:     wrap(rows, 1<<16),
			storePct: uint64(storePct) % 101,
			offerPct: wrap(uint64(offerPct), 100),
			depth:    int(wrap(uint64(depth), 64)),
			banks:    int(wrap(uint64(banks), 64)),
		}
		diffRun(t, st, seed, 2000)
	})
}

// wrap maps v into [1, hi], leaving values already there unchanged.
func wrap(v, hi uint64) uint64 {
	if v >= 1 && v <= hi {
		return v
	}
	return 1 + v%hi
}

func diffRun(t *testing.T, st stream, seed uint64, cycles int64) {
	cfg := config.Baseline()
	if st.depth > 0 {
		cfg.MemQueueDepth = st.depth
	}
	if st.banks > 0 {
		cfg.BanksPerChan = st.banks
	}
	m := addrmap.New(&cfg)
	got, ref := NewChannel(0, &cfg, m), newRefChannel(0, &cfg, m)

	var gotDone, refDone []string
	now := int64(0)
	got.Respond = func(r *sim.MemReq) { gotDone = append(gotDone, fmt.Sprintf("%d@%d", r.ID, now)) }
	ref.Respond = func(r *sim.MemReq) { refDone = append(refDone, fmt.Sprintf("%d@%d", r.ID, now)) }

	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(len(st.name)))
	id := uint32(0)
	for now = 1; now <= cycles; now++ {
		// Both queues hold the same requests, so they refuse together.
		for rng.Uint64()%100 < st.offerPct {
			id++
			kind := sim.Load
			if rng.Uint64()%100 < st.storePct {
				kind = sim.Store
			}
			row := rng.Uint64() % st.rows
			addr := row*addrmap.RowBytes + rng.Uint64()%8*sim.LineSize
			a, b := &sim.MemReq{ID: id, Kind: kind, Addr: addr}, &sim.MemReq{ID: id, Kind: kind, Addr: addr}
			okGot, okRef := got.Enqueue(a), ref.Enqueue(b)
			if okGot != okRef {
				t.Fatalf("cycle %d: Enqueue accepted %v, reference %v", now, okGot, okRef)
			}
			if got.CanEnqueue() != !ref.queue.Full() {
				t.Fatalf("cycle %d: CanEnqueue %v, reference %v", now, got.CanEnqueue(), !ref.queue.Full())
			}
			if !okGot {
				break
			}
		}
		got.Tick(now)
		ref.Tick(now)
		if g, r := viewNew(got), viewRef(ref); g != r {
			t.Fatalf("cycle %d: schedulers diverge\n got %s\n ref %s", now, g, r)
		}
		if got.StateSig() != ref.StateSig() {
			t.Fatalf("cycle %d: StateSig %#x, reference %#x", now, got.StateSig(), ref.StateSig())
		}
		ge, gok := got.nextEvent()
		re, rok := ref.NextEvent()
		if ge != re || gok != rok || got.Idle() == ref.Pending() {
			t.Fatalf("cycle %d: NextEvent %d/%v pending %v, reference %d/%v pending %v",
				now, ge, gok, !got.Idle(), re, rok, ref.Pending())
		}
	}
	if fmt.Sprint(gotDone) != fmt.Sprint(refDone) {
		t.Fatalf("responses differ:\n got %v\n ref %v", gotDone, refDone)
	}
	if got.Reads+got.Writes == 0 {
		t.Fatal("stream issued nothing: the comparison is vacuous")
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full queue accepted")
	}
	if !q.Full() || q.Len() != 4 {
		t.Fatalf("expected full queue of 4, got len=%d", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 1000; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded push rejected at %d", i)
		}
	}
	if q.Full() {
		t.Fatal("unbounded queue reports full")
	}
	for i := 0; i < 1000; i++ {
		if v, _ := q.Pop(); v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

// TestQueueReserveGrowsOnce: Reserve(n) grows the buffer once, to the
// exact size, so n pushes after it fit, and wrapped entries keep their order.
func TestQueueReserveGrowsOnce(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(8) // wraps around the ring
	q.Reserve(100)
	for i := 9; i < 109; i++ {
		q.Push(i)
	}
	if len(q.buf) != 107 {
		t.Fatalf("buffer of %d slots for 107 entries", len(q.buf))
	}
	for i := 2; i < 109; i++ {
		if v, _ := q.Pop(); v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestQueueAtAndRemoveAt(t *testing.T) {
	q := NewQueue[int](8)
	// Exercise wraparound: push/pop a few first.
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	for i := 5; i < 9; i++ {
		q.Push(i)
	}
	// Queue now holds 2..8.
	for i := 0; i < q.Len(); i++ {
		if q.At(i) != i+2 {
			t.Fatalf("At(%d)=%d want %d", i, q.At(i), i+2)
		}
	}
	v := q.RemoveAt(2) // removes 4
	if v != 4 {
		t.Fatalf("RemoveAt(2)=%d want 4", v)
	}
	want := []int{2, 3, 5, 6, 7, 8}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("after remove, At(%d)=%d want %d", i, q.At(i), w)
		}
	}
}

func TestQueueProperty(t *testing.T) {
	// Property: a Queue behaves exactly like a slice-based FIFO under any
	// push/pop sequence.
	f := func(ops []uint8) bool {
		q := NewQueue[int](0)
		var model []int
		next := 0
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				got, _ := q.Pop()
				want := model[0]
				model = model[1:]
				if got != want {
					return false
				}
			} else {
				q.Push(next)
				model = append(model, next)
				next++
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkLatencyAndOrder(t *testing.T) {
	l := NewLink[int](5, 16, 0)
	if !l.Send(10, 42, 16) {
		t.Fatal("send rejected")
	}
	if _, ok := l.Pop(14); ok {
		t.Fatal("message delivered before latency+serialization")
	}
	v, ok := l.Pop(16) // 1 cycle serialization + 5 latency
	if !ok || v != 42 {
		t.Fatalf("Pop(16) = %d, %v", v, ok)
	}
}

func TestLinkSerialization(t *testing.T) {
	// A 136 B message on a 16 B link occupies ceil(136/16)=9 cycles.
	l := NewLink[int](0, 16, 0)
	if !l.Send(0, 1, 136) {
		t.Fatal("first send rejected")
	}
	if l.CanSend(0) {
		t.Fatal("link should be backlogged within the same cycle")
	}
	if !l.CanSend(9) {
		t.Fatal("link should be free after 9 cycles")
	}
	if _, ok := l.Pop(8); ok {
		t.Fatal("delivered before serialization finished")
	}
	if _, ok := l.Pop(9); !ok {
		t.Fatal("not delivered after serialization")
	}
}

func TestLinkByteBudgetSharing(t *testing.T) {
	// Many small messages share a wide link's cycle instead of
	// serializing one per cycle.
	l := NewLink[int](0, 64, 0)
	sent := 0
	for i := 0; i < 8; i++ {
		if l.Send(0, i, 8) {
			sent++
		}
	}
	if sent != 8 {
		t.Fatalf("expected 8x8B to share a 64B cycle, sent %d", sent)
	}
	// Next cycle the backlog has drained.
	if !l.CanSend(1) {
		t.Fatal("expected link free on next cycle")
	}
}

func TestLinkBandwidthConservation(t *testing.T) {
	// Long-run throughput cannot exceed width bytes per cycle.
	l := NewLink[int](2, 16, 0)
	var sentBytes int64
	for now := Cycle(0); now < 1000; now++ {
		for l.CanSend(now) {
			if !l.Send(now, 0, 40) {
				break
			}
			sentBytes += 40
		}
		for {
			if _, ok := l.Pop(now); !ok {
				break
			}
		}
	}
	if max := int64(1000*16 + 40); sentBytes > max {
		t.Fatalf("link over-delivered: %d bytes > %d", sentBytes, max)
	}
	if sentBytes < 1000*16*9/10 {
		t.Fatalf("link under-delivered badly: %d bytes", sentBytes)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a = NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Adjacent inputs should map to well-separated outputs.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		h := Mix(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
	// Low bits should be roughly balanced.
	ones := 0
	for i := uint64(0); i < 1000; i++ {
		if Mix(i)&1 == 1 {
			ones++
		}
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("low bit biased: %d/1000", ones)
	}
}

func TestMessageBytes(t *testing.T) {
	load := &MemReq{Kind: Load}
	store := &MemReq{Kind: Store}
	atomic := &MemReq{Kind: Atomic}
	cases := []struct {
		req   *MemReq
		reply bool
		want  int
	}{
		{load, false, ReqBytes},
		{load, true, DataBytes},
		{store, false, DataBytes},
		{store, true, ReqBytes},
		{atomic, false, DataBytes},
		{atomic, true, DataBytes},
	}
	for i, c := range cases {
		if got := MessageBytes(c.req, c.reply); got != c.want {
			t.Errorf("case %d: got %d want %d", i, got, c.want)
		}
	}
}

func TestReqKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Atomic.String() != "atomic" {
		t.Fatal("bad kind names")
	}
}

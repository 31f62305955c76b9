package sim

import (
	"math/bits"
	"slices"
	"testing"
)

// A link's serialization bound is exact: with a buffer that never fills,
// a Send refused at now is refused at every cycle before RetryAt and taken
// at it. A full buffer's bound is the caller's, and only ever raises it.
func TestLinkRetryAt(t *testing.T) {
	rng := NewRNG(3)
	l := NewLink[int](2, 16, 0)
	refused := 0
	for now := Cycle(1); now < 5000; now++ {
		bytes := 1 + int(rng.Uint64()%200)
		if l.Send(now, 0, bytes) {
			l.Pop(now + 1000) // the receiver keeps up
			continue
		}
		refused++
		at := l.RetryAt(now, 0)
		if at <= now {
			t.Fatalf("cycle %d: RetryAt = %d, not in the future", now, at)
		}
		for c := now + 1; c <= at; c++ {
			if probe := *l; probe.CanSend(c) != (c == at) {
				t.Fatalf("cycle %d: RetryAt = %d, but CanSend(%d) = %v", now, at, c, c != at)
			}
		}
	}
	if refused < 1000 {
		t.Fatalf("only %d refusals: the link is not congested", refused)
	}

	full := NewLink[int](2, 16, 1)
	full.Send(1, 0, 8)
	if full.Send(2, 0, 8) || full.RetryAt(2, 9) != 9 || full.RetryAt(2, 0) != 3 {
		t.Fatalf("full buffer: RetryAt(2, 9) = %d, RetryAt(2, 0) = %d; want the caller's room, 9, and no earlier than next cycle, 3",
			full.RetryAt(2, 9), full.RetryAt(2, 0))
	}
}

// Wakes: a walk visits exactly the occupied carriers whose wake has come,
// in ascending order, records what the visit returns, and leaves the
// minimum exact; Set lowers it at once. Under audit every occupied carrier
// is visited, a park that was not broken stands, and one that was is
// reported once.
func TestWakes(t *testing.T) {
	w := NewWakes("carrier", 130)
	walk := func(now Cycle, next map[int]Cycle, moved bool) (visited []int) {
		for i := w.First(now); i >= 0; {
			visited = append(visited, i)
			i = w.Next(i, now, next[i], moved)
		}
		return visited
	}
	if got := walk(5, nil, false); got != nil || w.Min() != Never || w.Any() {
		t.Fatalf("empty set: visited %v, min %d", got, w.Min())
	}
	w.Set(129, 9)
	w.Set(3, 7)
	w.Set(64, 20)
	if w.Min() != 7 || w.Count() != 3 || !w.Has(64) || w.Has(65) || w.At(65) != Never {
		t.Fatalf("after three Sets: min %d, count %d", w.Min(), w.Count())
	}
	if got := walk(6, nil, false); got != nil {
		t.Fatalf("walk at 6 visited %v with nothing due before 7", got)
	}
	// At 9: 3 is refused until 30, 129 empties; 64 is not due.
	if got := walk(9, map[int]Cycle{3: 30, 129: Never}, false); !slices.Equal(got, []int{3, 129}) {
		t.Fatalf("walk at 9 visited %v, want [3 129]", got)
	}
	if w.Min() != 20 || w.At(3) != 30 || w.Has(129) || w.Count() != 2 {
		t.Fatalf("after the walk: min %d, wake[3] %d, count %d", w.Min(), w.At(3), w.Count())
	}
	w.Set(3, 40) // raised from outside a walk: the minimum stays a lower bound
	if w.Min() > 20 {
		t.Fatalf("min %d after raising a wake", w.Min())
	}

	var audit ParkAudit
	w.Audit = &audit
	// Audited at 25: both are visited though only 64 is due; 3's park, not
	// broken, stands whatever the visit returned.
	if got := walk(25, map[int]Cycle{3: 26, 64: 50}, false); !slices.Equal(got, []int{3, 64}) || w.At(3) != 40 || w.At(64) != 50 {
		t.Fatalf("audited walk visited %v, wakes %d and %d; want [3 64], 40 and 50", got, w.At(3), w.At(64))
	}
	if audit.First() != "" {
		t.Fatalf("report %q with no park broken", audit.First())
	}
	walk(30, map[int]Cycle{3: 31, 64: 51}, true)
	if want := "carrier 3: head taken at cycle 30, parked until 40"; audit.First() != want {
		t.Fatalf("report %q, want %q (the first, only)", audit.First(), want)
	}
}

// sweep walks w at now as GPU.step does, inline, calling visit on each
// carrier due, and returns the carriers visited.
func sweep(w *Wakes, now Cycle, visit func(i int)) (visited []int) {
	occ, at := w.Sweep(now)
	lo := Never
	for j := range occ {
		for word := occ[j]; word != 0; {
			b := bits.TrailingZeros64(word)
			i := j<<6 | b
			if at[i] <= now {
				visited = append(visited, i)
				visit(i)
			}
			lo = min(lo, at[i])
			word = occ[j] & (^uint64(1) << b)
		}
	}
	w.Fold(lo)
	return visited
}

// A carrier Set due during a walk is visited in the same walk when it lies
// above the cursor — in the same word or a later one — and in the next walk
// when it lies below; a visit that Sets nothing leaves its carrier due.
func TestSweepSeesSetsAboveTheCursor(t *testing.T) {
	w := NewWakes("component", 130)
	for _, i := range []int{2, 10, 70, 100, 129} {
		w.Set(i, 50)
	}
	w.Set(10, 5)
	got := sweep(&w, 5, func(i int) {
		if i == 10 {
			w.Set(2, 0)   // below the cursor: next walk
			w.Set(40, 0)  // above, same word
			w.Set(100, 0) // above, next word, already occupied
			w.Set(120, 0) // above, next word, empty
		}
		if i != 120 {
			w.Set(i, 60)
		}
	})
	if !slices.Equal(got, []int{10, 40, 100, 120}) {
		t.Fatalf("walk at 5 visited %v, want [10 40 100 120]", got)
	}
	if got := sweep(&w, 6, func(i int) { w.Set(i, 60) }); !slices.Equal(got, []int{2, 120}) || w.Min() != 50 {
		t.Fatalf("walk at 6 visited %v, min %d; want [2 120] and 50", got, w.Min())
	}
	if got := sweep(&w, 49, func(int) {}); got != nil {
		t.Fatalf("walk at 49 visited %v with nothing due before 50", got)
	}
}

// Min is a lower bound on every occupied carrier's wake after any sequence
// of Sets, walks and Sets made during walks, through the set or through a
// carrier's Slot.
func TestWakesMinIsALowerBound(t *testing.T) {
	rng := NewRNG(7)
	w := NewWakes("component", 200)
	slots := make([]Slot, 200)
	for i := range slots {
		slots[i].Move(&w, i)
	}
	trueMin := func() Cycle {
		m := Never
		for i := range w.Len() {
			if w.Has(i) {
				m = min(m, w.At(i))
			}
		}
		return m
	}
	for now := Cycle(1); now < 20000; now++ {
		for range rng.Intn(4) {
			i, t := rng.Intn(200), now+Cycle(rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				slots[i].Wake()
				continue
			case 1:
				t = Never
			case 2:
				slots[i].Set(t)
				continue
			}
			w.Set(i, t)
		}
		sweep(&w, now, func(i int) {
			if rng.Intn(8) == 0 {
				slots[rng.Intn(200)].Wake() // a door, anywhere
			}
			slots[i].Set(now + 1 + Cycle(rng.Intn(100)))
		})
		if m := trueMin(); w.Min() > m {
			t.Fatalf("cycle %d: Min %d above the least wake %d", now, w.Min(), m)
		}
		if i := rng.Intn(200); slots[i].At() != w.At(i) || w.Has(i) != (w.At(i) != Never) {
			t.Fatalf("cycle %d: carrier %d reads %d through its slot, %d (occupied %v) in the set", now, i, slots[i].At(), w.At(i), w.Has(i))
		}
	}
}

// The zero Wakes is a set of no carriers: never due, and a walk of it
// visits nothing — so a set an architecture leaves unbuilt costs a
// Deadline nothing.
func TestZeroWakesIsNeverDue(t *testing.T) {
	var w Wakes
	if w.Min() != Never || w.Any() || w.Len() != 0 {
		t.Fatalf("zero Wakes: Min %d, Any %v, Len %d; want Never, false, 0", w.Min(), w.Any(), w.Len())
	}
	if i := w.First(5); i != -1 || w.Min() != Never {
		t.Fatalf("a walk of the zero Wakes began at %d and left Min %d", i, w.Min())
	}
	var d Deadline
	if d.At() != 0 {
		t.Fatalf("a zero Deadline is at %d before its first Refold, want 0 (due)", d.At())
	}
	d.Join(&w)
	if d.Refold(); d.At() != Never {
		t.Fatalf("a Deadline over the zero Wakes is at %d, want Never", d.At())
	}
}

// A Deadline is a lower bound on every occupied carrier of its members
// after any sequence of Sets and walks, Sets made during walks included,
// and the least of their minima once refolded.
func TestDeadlineIsALowerBound(t *testing.T) {
	rng := NewRNG(11)
	var d Deadline
	sets := []*Wakes{new(Wakes), ptr(NewWakes("a", 70)), ptr(NewWakes("b", 3))}
	for _, w := range sets {
		d.Join(w)
	}
	d.Refold()
	set := func(now Cycle, walked *Wakes) {
		w := sets[1+rng.Intn(2)]
		if w == walked {
			return // a sink sends into another set than the one it drains
		}
		t := now + Cycle(rng.Intn(50))
		if rng.Intn(3) == 0 {
			t = Never
		}
		w.Set(rng.Intn(w.Len()), t)
	}
	for now := Cycle(1); now < 20000; now++ {
		for range rng.Intn(3) {
			set(now, nil)
		}
		if d.At() > d.Least() {
			t.Fatalf("cycle %d: deadline %d above the least wake %d", now, d.At(), d.Least())
		}
		if d.At() > now && rng.Intn(4) != 0 {
			continue // nothing is due: the walks are skipped
		}
		for _, w := range sets[1:] {
			for i := w.First(now); i >= 0; {
				if rng.Intn(4) == 0 {
					set(now, w) // a sink sends into a set, walked or not
				}
				next := now + 1 + Cycle(rng.Intn(20))
				if rng.Intn(3) == 0 {
					next = Never
				}
				i = w.Next(i, now, next, true)
			}
		}
		d.Refold()
		if m := min(sets[0].Min(), sets[1].Min(), sets[2].Min()); d.At() != m || m > d.Least() {
			t.Fatalf("cycle %d: refolded deadline %d, least minimum %d, least wake %d", now, d.At(), m, d.Least())
		}
	}
}

func ptr[T any](v T) *T { return &v }

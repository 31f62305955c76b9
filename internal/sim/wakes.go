package sim

import "fmt"

// A refused head parks (DESIGN.md §9 "Parks"). Wherever a send can be
// refused, the refusal comes with a lower bound on the cycle a retry could
// succeed, the sender keeps it as the head's wake, and nothing offers the
// head again before then. The bound may be early — that costs one more
// refused offer — and must never be late, or a cycle moves.

// Offers counts, at one site, the heads offered to a receiver and the
// offers it refused. Accounting only (core.EngineStats), never simulation
// state.
type Offers struct{ Offered, Refused int64 }

// Add sums another site's counts into o.
func (o *Offers) Add(p Offers) { o.Offered += p.Offered; o.Refused += p.Refused }

// ParkAudit is how the engines that do not trust parks switch them off.
// A component holding one ignores its parks — every head is offered on
// every tick, as if nothing had ever been parked — and reports here a head
// that was taken while its park said it could not be. EngineNaive installs
// one and so stays the reference the parks are held to; EngineSanitize
// also fails the run on the first report. nil (hybrid, a component on its
// own) obeys the parks.
type ParkAudit struct{ early string }

// Early records that the head at site (index i, -1 for none) was taken at
// cycle now, before the end of its park. Only the first report is kept.
func (a *ParkAudit) Early(site string, i int, now, until Cycle) {
	if a.early != "" {
		return
	}
	if i >= 0 {
		site = fmt.Sprintf("%s %d", site, i)
	}
	a.early = fmt.Sprintf("%s: head taken at cycle %d, parked until %s", site, now, Until(until))
}

// Until formats the end of a park for a report: the cycle, or "never" for
// one only a door can end.
func Until(t Cycle) string {
	if t >= Never {
		return "never"
	}
	return fmt.Sprint(t)
}

// First returns the first report, "" when there is none.
func (a *ParkAudit) First() string { return a.early }

// Park is the park of one head that lives outside a Wakes — an SM's send
// queue and LSU, a slice's outbox and arbiter. Until is the cycle before
// which the head is not to be offered: 0 when it is not parked, Never when
// only a door (which writes 0) can end the park.
//
//	if !p.Begin(now, audit) { return }   // parked: not this cycle
//	... offer the head; a refusal may write p.Until ...
//	p.Refused(now)                        // or p.Taken(now, audit, site, id)
type Park struct {
	Until Cycle
	// held is the park an audited offer was made under, from Begin to the
	// offer's outcome.
	held Cycle
}

// Begin reports whether the head may be offered at cycle now — it is not
// parked, or audit says to offer it anyway — and if so clears the park for
// the offer's refusal to write anew.
func (p *Park) Begin(now Cycle, audit *ParkAudit) bool {
	if now < p.Until && audit == nil {
		return false
	}
	p.held, p.Until = p.Until, 0
	return true
}

// Refused ends an offer that was refused: a park it was made under (by an
// audit) stands, whatever the refusal said, as hybrid would still hold it.
func (p *Park) Refused(now Cycle) {
	if now < p.held {
		p.Until = p.held
	}
}

// Taken ends an offer that was taken, which under a park is what the audit
// is there to hear of.
func (p *Park) Taken(now Cycle, audit *ParkAudit, site string, i int) {
	if now < p.held {
		audit.Early(site, i, now, p.held)
		p.held = 0
	}
}

// Wakes is an array of carriers — a crossbar's input queues, the links of a
// Links — with, per carrier, one occupancy bit and one wake: the earliest
// cycle its head could move (its arrival, or the end of its park), Never
// while it is empty. The minimum over the array is kept beside them, so a
// cycle on which nothing is due costs the walk one compare. The zero value
// is a set of no carriers, never due.
type Wakes struct {
	occ Bits
	at  []Cycle
	// min is a lower bound on every wake: exact after a walk, lowered by
	// Set, left stale (low) when Set raises the wake that held it.
	min Cycle
	// deadline is the Deadline the set is a member of, which Set lowers
	// with min, and next the member that joined it before.
	deadline *Deadline
	next     *Wakes
	// Audit, when set, makes a walk visit every occupied carrier whatever
	// its wake says, and is told of a head that moved before its wake.
	Audit *ParkAudit
	site  string
}

// NewWakesIn returns a set of n empty carriers, named site in audit
// reports, over the given backing arrays: occ of BitWords(n) words and at
// of n cycles, so that several sets can be carved from one allocation.
func NewWakesIn(site string, occ Bits, at []Cycle) Wakes {
	for i := range at {
		at[i] = Never
	}
	return Wakes{occ: occ, at: at, min: Never, site: site}
}

// NewWakes returns a set of n empty carriers.
func NewWakes(site string, n int) Wakes {
	return NewWakesIn(site, NewBits(n), make([]Cycle, n))
}

// Set records carrier i's wake: Never marks it empty, anything else
// occupied.
func (w *Wakes) Set(i int, t Cycle) {
	w.at[i] = t
	if t == Never {
		w.occ.Clear(i)
		return
	}
	w.occ.Set(i)
	if t < w.min {
		w.min = t
		if d := w.deadline; d != nil && t < d.at {
			d.at = t
		}
	}
}

// At returns carrier i's wake.
func (w *Wakes) At(i int) Cycle { return w.at[i] }

// Len returns the number of carriers.
func (w *Wakes) Len() int { return len(w.at) }

// Has reports whether carrier i is occupied.
func (w *Wakes) Has(i int) bool { return w.occ.Has(i) }

// Any reports whether any carrier is occupied.
func (w *Wakes) Any() bool { return w.occ.Any() }

// Count returns the number of occupied carriers.
func (w *Wakes) Count() int { return w.occ.Count() }

// Min returns a lower bound on the earliest wake, Never when the set was
// empty at the last walk and nothing has been Set since.
func (w *Wakes) Min() Cycle {
	if len(w.at) == 0 {
		return Never
	}
	return w.min
}

// First begins a walk at cycle now over the occupied carriers whose wake
// has come, in ascending order, and returns the first of them, -1 when
// there is none:
//
//	for i := w.First(now); i >= 0; {
//		wake, moved := offer(i) // move what can move of carrier i
//		i = w.Next(i, now, wake, moved)
//	}
//
// A carrier whose wake lies ahead costs the walk one compare, and a set
// whose minimum lies ahead one in all. The walk must run to its end: that
// is what leaves the minimum exact.
func (w *Wakes) First(now Cycle) int {
	if w.min > now && w.Audit == nil {
		return -1
	}
	w.min = Never
	return w.due(0, now)
}

// Next ends the walk's visit to carrier i — wake is its next wake, Never
// when the visit emptied it, and moved whether any message left it — and
// returns the next carrier due, -1 at the end of the walk.
func (w *Wakes) Next(i int, now, wake Cycle, moved bool) int {
	if t := w.at[i]; now < t { // only an audited walk visits a parked carrier
		if moved {
			w.Audit.Early(w.site, i, now, t)
		} else {
			wake = t // the park under audit stands
		}
	}
	w.Set(i, wake)
	return w.due(i+1, now)
}

// due returns the first occupied carrier at or above from whose wake has
// come, folding the wakes it passes over into the minimum.
func (w *Wakes) due(from int, now Cycle) int {
	for i := w.occ.Next(from); i >= 0; i = w.occ.Next(i + 1) {
		t := w.at[i]
		if t <= now || w.Audit != nil {
			return i
		}
		if t < w.min {
			w.min = t
		}
	}
	return -1
}

// Sweep begins a walk that its caller writes inline — GPU.step's over the
// SMs, slices and channels, where a call per carrier would cost more than
// the walk saves. It restarts the minimum and returns the occupancy words
// and the wakes, or nil when no wake has come by now. The caller visits the
// set bits in ascending order, re-reading a word after each visit, so that
// a carrier Set due above the cursor is visited in the same walk and one
// below it in the next; and it ends the walk with Fold of the least wake
// it leaves behind, visited or passed over.
func (w *Wakes) Sweep(now Cycle) (Bits, []Cycle) {
	if w.min > now {
		return nil, nil
	}
	w.min = Never
	return w.occ, w.at
}

// Fold lowers the minimum to t.
func (w *Wakes) Fold(t Cycle) { w.min = min(w.min, t) }

// Deadline is a lower bound on the wakes of its member sets — the GPU's
// fabric (DESIGN.md §9 "Sleep deadlines"). A Set that lowers a member's
// minimum lowers it too, and Refold, once the members' walks have ended,
// makes it their least minimum. The zero Deadline is due until refolded.
type Deadline struct {
	at   Cycle
	last *Wakes // the member that joined last, the head of their list
}

// Join makes the sets members, from the next Refold on; they must not
// move from then on. A set of no carriers is never due and is left out.
func (d *Deadline) Join(sets ...*Wakes) {
	for _, w := range sets {
		if w.Len() > 0 {
			w.deadline, w.next, d.last = d, d.last, w
		}
	}
}

// At returns the deadline.
func (d *Deadline) At() Cycle { return d.at }

// Refold makes the deadline the least of the members' minima.
func (d *Deadline) Refold() {
	t := Never
	for w := d.last; w != nil; w = w.next {
		t = min(t, w.min)
	}
	d.at = t
}

// Least walks every member's occupied carriers for the least wake, what the
// deadline bounds from below.
func (d *Deadline) Least() Cycle {
	t := Never
	for w := d.last; w != nil; w = w.next {
		for i := w.occ.Next(0); i >= 0; i = w.occ.Next(i + 1) {
			t = min(t, w.at[i])
		}
	}
	return t
}

// Slot is a carrier's own handle on its wake in a Wakes: where an SM, a
// slice or a channel keeps its sleep deadline, the carriers being the
// GPU's components of one kind (DESIGN.md §9 "Sleep deadlines"). A
// component writes it at the end of every tick and at every door work
// arrives through, so it points at what Wakes.Set writes instead of
// indexing for it. The zero Slot belongs to no set and keeps the wake
// itself, 0 (due) until written: a component ticked on its own.
type Slot struct {
	at   *Cycle  // the carrier's wake, nil while the slot is in no set
	word *uint64 // the word that holds the carrier's occupancy bit
	bit  uint64
	min  *Cycle // the set's minimum
	own  Cycle  // the wake, while the slot is in no set
}

// Move makes carrier i of w the home of the slot's wake; w must not move
// from then on. The carrier's wake stands — Never in a new set, so that a
// component moved into one sleeps until its first door.
func (s *Slot) Move(w *Wakes, i int) {
	*s = Slot{at: &w.at[i], word: &w.occ[i>>6], bit: 1 << (uint(i) & 63), min: &w.min}
}

// Set records the wake, as Wakes.Set does: Never until a door opens, 0 due
// now.
func (s *Slot) Set(t Cycle) {
	if s.at == nil {
		s.own = t
		return
	}
	*s.at = t
	if t == Never {
		*s.word &^= s.bit
		return
	}
	*s.word |= s.bit
	if t < *s.min {
		*s.min = t
	}
}

// Wake is Set(0), what a door writes. A wake already 0 is left as it is:
// its bit is set and the set's minimum is 0 or about to be refolded.
func (s *Slot) Wake() {
	if s.at == nil {
		s.own = 0
	} else if *s.at != 0 {
		*s.at = 0
		*s.word |= s.bit
		*s.min = 0
	}
}

// At returns the wake.
func (s *Slot) At() Cycle {
	if s.at == nil {
		return s.own
	}
	return *s.at
}

package cache

import "github.com/nuba-gpu/nuba/internal/sim"

// MSHRFile is a Miss Status Holding Register file: it tracks outstanding
// line fills and merges subsequent misses to the same line behind the
// first (primary) miss, bounding the number of in-flight misses a cache
// can sustain.
//
// The entries live in an open-addressed table of at least twice the
// capacity, a power of two, probed linearly from the line's hash: a lookup
// ends at the line or at an empty slot, and at most half the slots are
// ever taken, so a probe run stays short.
type MSHRFile struct {
	capacity int
	n        int
	slots    []mshrSlot
	mask     uint64
	// free chains released entries through next for the next Allocate;
	// an empty chain refills from a sim.Slab of length slab.
	free *MSHREntry
	slab int

	// Merges counts secondary misses folded into an existing entry;
	// StallsFull counts allocation attempts rejected because the file
	// was full.
	Merges     int64
	StallsFull int64
}

// mshrSlot is one table slot; e is nil when the slot is empty.
type mshrSlot struct {
	line uint64
	e    *MSHREntry
}

// MSHREntry records one outstanding line fill and the requests waiting
// for it.
type MSHREntry struct {
	// Line is the line-aligned address being filled.
	Line uint64
	// Primary is the request that triggered the fill.
	Primary *sim.MemReq
	// Waiters is the first secondary request merged behind Primary, nil
	// if none; the rest follow it in merge order through sim.MemReq.Next.
	Waiters *sim.MemReq
	tail    **sim.MemReq // where the next waiter links in
	// Allocated is the cycle the entry was created.
	Allocated sim.Cycle
	next      *MSHREntry // the free chain's link while released
}

// NewMSHRFile returns a file with the given entry capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return &MSHRFile{capacity: capacity, slots: make([]mshrSlot, size), mask: uint64(size - 1)}
}

// find returns the slot holding line, or the empty slot that ends its
// probe run, and whether line is there.
func (m *MSHRFile) find(line uint64) (uint64, bool) {
	i := sim.Mix(line) & m.mask
	for m.slots[i].e != nil {
		if m.slots[i].line == line {
			return i, true
		}
		i = (i + 1) & m.mask
	}
	return i, false
}

// Len returns the number of outstanding entries.
func (m *MSHRFile) Len() int { return m.n }

// Full reports whether no new entry can be allocated.
func (m *MSHRFile) Full() bool { return m.n >= m.capacity }

// Lookup returns the outstanding entry for line, if any.
func (m *MSHRFile) Lookup(line uint64) (*MSHREntry, bool) {
	i, ok := m.find(line)
	return m.slots[i].e, ok
}

// Each calls fn on every outstanding entry in table order, which is a
// function of the outstanding lines alone.
func (m *MSHRFile) Each(fn func(*MSHREntry)) {
	for _, s := range m.slots {
		if s.e != nil {
			fn(s.e)
		}
	}
}

// Admit reports what Allocate would do with a miss on line — merge it
// behind an outstanding fill, or take a new entry — and counts the stall
// when it would refuse. A caller that builds its request only once the
// miss is certain to be tracked asks here first.
func (m *MSHRFile) Admit(line uint64) (merge, ok bool) {
	if _, exists := m.find(line); exists {
		return true, true
	}
	if m.Full() {
		m.StallsFull++
		return false, false
	}
	return false, true
}

// Allocate registers req's miss on line at cycle now. If an entry for the
// line already exists the request is merged as a secondary miss and
// merged=true is returned. If the file is full and no entry exists,
// ok=false is returned and the cache must stall the request.
func (m *MSHRFile) Allocate(line uint64, req *sim.MemReq, now sim.Cycle) (entry *MSHREntry, merged, ok bool) {
	i, exists := m.find(line)
	if exists {
		e := m.slots[i].e
		req.Next, *e.tail = nil, req
		e.tail = &req.Next
		m.Merges++
		req.MergedBehind = true
		return e, true, true
	}
	if m.Full() {
		m.StallsFull++
		return nil, false, false
	}
	e := m.free
	if e == nil {
		e = sim.Slab(&m.slab, &m.free, func(e *MSHREntry) **MSHREntry { return &e.next })
	} else {
		m.free = e.next
	}
	*e = MSHREntry{Line: line, Primary: req, Allocated: now, tail: &e.Waiters}
	m.slots[i] = mshrSlot{line: line, e: e}
	m.n++
	return e, false, true
}

// Release removes and returns the entry for line when its fill completes.
// ok is false if no entry was outstanding. The entry stays readable until
// the next Allocate, which may hand the same object out again.
func (m *MSHRFile) Release(line uint64) (*MSHREntry, bool) {
	i, ok := m.find(line)
	if !ok {
		return nil, false
	}
	e := m.slots[i].e
	e.next, m.free = m.free, e
	m.n--
	// Backward-shift deletion: walk the probe run past the hole and move
	// back into it each entry whose home slot is not between the hole and
	// where the entry sits, so every lookup still reaches its line before
	// an empty slot.
	for j := (i + 1) & m.mask; m.slots[j].e != nil; j = (j + 1) & m.mask {
		home := sim.Mix(m.slots[j].line) & m.mask
		if (j-home)&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot{}
	return e, true
}

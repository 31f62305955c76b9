package cache

import "github.com/nuba-gpu/nuba/internal/sim"

// MSHRFile is a Miss Status Holding Register file: it tracks outstanding
// line fills and merges subsequent misses to the same line behind the
// first (primary) miss, bounding the number of in-flight misses a cache
// can sustain.
type MSHRFile struct {
	capacity int
	entries  map[uint64]*MSHREntry
	// free holds released entries for the next Allocate; it fills as
	// misses retire, up to capacity, and is never pre-sized. A recycled
	// entry keeps its Waiters backing array.
	free []*MSHREntry

	// Merges counts secondary misses folded into an existing entry;
	// StallsFull counts allocation attempts rejected because the file
	// was full.
	Merges     int64
	StallsFull int64
}

// MSHREntry records one outstanding line fill and the requests waiting
// for it.
type MSHREntry struct {
	// Line is the line-aligned address being filled.
	Line uint64
	// Primary is the request that triggered the fill.
	Primary *sim.MemReq
	// Waiters are secondary requests merged behind Primary.
	Waiters []*sim.MemReq
	// Allocated is the cycle the entry was created.
	Allocated sim.Cycle
}

// NewMSHRFile returns a file with the given entry capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRFile{capacity: capacity, entries: make(map[uint64]*MSHREntry, capacity)}
}

// Len returns the number of outstanding entries.
func (m *MSHRFile) Len() int { return len(m.entries) }

// Full reports whether no new entry can be allocated.
func (m *MSHRFile) Full() bool { return len(m.entries) >= m.capacity }

// Lookup returns the outstanding entry for line, if any.
func (m *MSHRFile) Lookup(line uint64) (*MSHREntry, bool) {
	e, ok := m.entries[line]
	return e, ok
}

// Each calls fn on every outstanding entry in no particular order, so fn
// may only fold entries into something order-independent — the counts of
// a stall diagnosis.
func (m *MSHRFile) Each(fn func(*MSHREntry)) {
	//nubalint:ignore nondet-map-range callers fold the entries into counts, which commute
	for _, e := range m.entries {
		fn(e)
	}
}

// Admit reports what Allocate would do with a miss on line — merge it
// behind an outstanding fill, or take a new entry — and counts the stall
// when it would refuse. A caller that builds its request only once the
// miss is certain to be tracked asks here first.
func (m *MSHRFile) Admit(line uint64) (merge, ok bool) {
	if _, exists := m.entries[line]; exists {
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
	if e, exists := m.entries[line]; exists {
		e.Waiters = append(e.Waiters, req)
		m.Merges++
		req.MergedBehind = true
		return e, true, true
	}
	if m.Full() {
		m.StallsFull++
		return nil, false, false
	}
	var e *MSHREntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free = m.free[:n-1]
		clear(e.Waiters) // the previous miss's requests are not ours to keep alive
		*e = MSHREntry{Line: line, Primary: req, Waiters: e.Waiters[:0], Allocated: now}
	} else {
		e = &MSHREntry{Line: line, Primary: req, Allocated: now}
	}
	m.entries[line] = e
	return e, false, true
}

// Release removes and returns the entry for line when its fill completes.
// ok is false if no entry was outstanding. The entry stays readable until
// the next Allocate, which may hand the same object out again.
func (m *MSHRFile) Release(line uint64) (*MSHREntry, bool) {
	e, ok := m.entries[line]
	if ok {
		delete(m.entries, line)
		m.free = append(m.free, e)
	}
	return e, ok
}

// Package cache implements the one set-associative tag array of the
// model — the per-SM L1 data caches, the LLC slices, the L1 and L2 TLBs
// (whose lines are page numbers) and MDR's shadow-tag samplers: LRU
// replacement, configurable write policy (write-through/write-no-allocate
// for L1, write-back/write-allocate for the LLC) and a Miss Status Holding
// Register (MSHR) file for merging outstanding misses.
package cache

import (
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Policy selects the write behaviour of a cache.
type Policy int

// Write policies.
const (
	// WriteThrough with write-no-allocate: stores bypass the cache
	// (invalidating a matching line) and propagate downstream. This is
	// the GPU L1 policy assumed by the paper's software coherence.
	WriteThrough Policy = iota
	// WriteBack with write-allocate: stores allocate and dirty lines;
	// evictions of dirty lines produce writebacks. The LLC policy.
	WriteBack
)

// A line is 16 B. Its key is the line address with the flags in the
// offset bits, which every line address has zero: no tag can overlap them,
// and a hit test is one compare per way.
type line struct {
	key     uint64
	lastUse int64
}

// The flags of line.key; the last constant does not compile unless they
// fit in the offset bits.
const (
	valid   uint64 = 1 << iota
	dirty          // modified since the fill (write-back only)
	replica        // a replicated copy of a remote line (NUBA/MDR)
	_       = sim.LineSize - replica<<1
)

// hit reports whether l holds line address tag.
func (l *line) hit(tag uint64) bool { return l.key&^(dirty|replica) == tag|valid }

// Cache is a single-ported set-associative cache. It tracks only tags and
// metadata — the simulator never models data contents.
type Cache struct {
	sets   int
	ways   int
	policy Policy
	lines  []line

	// Accesses, Hits, Misses, Evictions and Writebacks are cumulative
	// counters maintained by Access/Insert.
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// New returns a cache with the given geometry. Sets and ways must be
// positive; the line size is the global 128 B.
func New(sets, ways int, policy Policy) *Cache {
	if sets <= 0 || ways <= 0 {
		panic("cache: sets and ways must be positive")
	}
	c := &Cache{sets: sets, ways: ways, policy: policy}
	c.lines = make([]line, sets*ways)
	return c
}

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (sim.LineSize - 1) }

// SetIndex returns the set addr maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int(addr / sim.LineSize % uint64(c.sets))
}

func (c *Cache) set(addr uint64) []line {
	i := c.SetIndex(addr) * c.ways
	return c.lines[i : i+c.ways]
}

// Access performs a lookup for a read (write=false) or a write
// (write=true) at cycle now and reports whether it hit. On a write:
//   - WriteThrough caches invalidate a matching line (write-no-allocate)
//     and always report a miss in the sense that the store must propagate;
//     the returned hit only reflects tag presence before invalidation.
//   - WriteBack caches mark a hit line dirty.
//
// Access never allocates; use Insert when the fill returns.
func (c *Cache) Access(addr uint64, write bool, now int64) (hit bool) {
	c.Accesses++
	tag := c.LineAddr(addr)
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.hit(tag) {
			c.Hits++
			if write {
				if c.policy == WriteThrough {
					l.key &^= valid // write-no-allocate: drop stale copy
				} else {
					l.key |= dirty
					l.lastUse = now
				}
			} else {
				l.lastUse = now
			}
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports whether addr is present without touching LRU state or
// counters. Used by coherence checks and tests.
func (c *Cache) Probe(addr uint64) bool {
	tag := c.LineAddr(addr)
	for _, l := range c.set(addr) {
		if l.hit(tag) {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, evicting the LRU way if needed.
// isDirty marks the fill as modified (write-allocate); isReplica marks it
// as a replicated remote line. It returns the evicted line address and
// whether that eviction requires a writeback.
func (c *Cache) Insert(addr uint64, isDirty, isReplica bool, now int64) (victim uint64, writeback bool) {
	tag := c.LineAddr(addr)
	flags := valid
	if isDirty {
		flags |= dirty
	}
	if isReplica {
		flags |= replica
	}
	set := c.set(addr)
	// Refill of a line that raced in already: just update.
	for i := range set {
		l := &set[i]
		if l.hit(tag) {
			l.key = l.key&^replica | flags
			l.lastUse = now
			return 0, false
		}
	}
	vi := 0
	for i := range set {
		l := &set[i]
		if l.key&valid == 0 {
			vi = i
			break
		}
		if l.lastUse < set[vi].lastUse {
			vi = i
		}
	}
	v := &set[vi]
	// A way a flush has yet to write back (invalid, still dirty) is not
	// empty: its line goes out with the eviction, not lost.
	if v.key&valid != 0 {
		c.Evictions++
	}
	if v.key&(valid|dirty) != 0 {
		victim = c.LineAddr(v.key)
		if v.key&dirty != 0 && c.policy == WriteBack {
			c.Writebacks++
			writeback = true
		}
	}
	*v = line{key: tag | flags, lastUse: now}
	return victim, writeback
}

// Invalidate drops the line containing addr if present and reports whether
// it was found; wasDirty additionally reports whether it held dirty data.
func (c *Cache) Invalidate(addr uint64) (found, wasDirty bool) {
	tag := c.LineAddr(addr)
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.hit(tag) {
			wasDirty = l.key&dirty != 0
			l.key &^= valid | dirty // dropped: no flush writes it back
			return true, wasDirty
		}
	}
	return false, false
}

// InvalidateAll drops every line (the software-coherence flush at
// synchronization and kernel boundaries). A write-back cache's dirty lines
// stay marked, awaiting writeback: NextWriteback hands them out.
func (c *Cache) InvalidateAll() {
	drop := valid
	if c.policy != WriteBack {
		drop |= dirty
	}
	for i := range c.lines {
		c.lines[i].key &^= drop
	}
}

// NextWriteback hands out the first line at or after way index from (set
// order) that InvalidateAll left awaiting writeback, and clears its mark.
// next is where the following call resumes, -1 when no line is left.
func (c *Cache) NextWriteback(from int) (line uint64, next int) {
	for i := from; i < len(c.lines); i++ {
		if l := &c.lines[i]; l.key&(valid|dirty) == dirty {
			l.key &^= dirty
			return c.LineAddr(l.key), i + 1
		}
	}
	return 0, -1
}

// InvalidateReplicas drops all replica lines (used when MDR turns
// replication off or at kernel boundaries) and returns how many were
// dropped. Replicas are read-only by construction so no writebacks occur.
func (c *Cache) InvalidateReplicas() int {
	n := 0
	for i := range c.lines {
		l := &c.lines[i]
		if l.key&(valid|replica) == valid|replica {
			l.key &^= valid | dirty
			n++
		}
	}
	return n
}

// Occupancy returns the fraction of valid lines.
func (c *Cache) Occupancy() float64 {
	n := 0
	for i := range c.lines {
		if c.lines[i].key&valid != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.lines))
}

// Package vm models the GPU's unified-memory address translation: per-SM
// L1 TLBs, a shared multi-ported L2 TLB, a pool of concurrent page-table
// walkers and the fixed 20 us first-touch page-fault penalty, following
// the two-level design of Table 1.
package vm

// TLB is a set-associative translation lookaside buffer with LRU
// replacement. It tracks only virtual page numbers; physical mappings are
// always fetched from the driver so migrations and replica placement stay
// coherent by construction (a TLB shootdown is modeled by flushing the
// VPN, which forces the latency of a re-walk).
type TLB struct {
	sets int
	ways int
	tags []tlbEntry
}

type tlbEntry struct {
	vpn     uint64
	valid   bool
	lastUse int64
}

// NewTLB returns a TLB with entries total entries and the given
// associativity. entries must be a multiple of ways.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("vm: TLB geometry invalid")
	}
	return &TLB{sets: entries / ways, ways: ways, tags: make([]tlbEntry, entries)}
}

func (t *TLB) set(vpn uint64) []tlbEntry {
	i := int(vpn%uint64(t.sets)) * t.ways
	return t.tags[i : i+t.ways]
}

// Lookup probes for vpn at cycle now, updating LRU state.
func (t *TLB) Lookup(vpn uint64, now int64) bool {
	set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lastUse = now
			return true
		}
	}
	return false
}

// Insert fills vpn, evicting the LRU entry of its set if needed.
func (t *TLB) Insert(vpn uint64, now int64) {
	set := t.set(vpn)
	vi := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lastUse = now
			return
		}
		if !e.valid {
			vi = i
			break
		}
		if e.lastUse < set[vi].lastUse {
			vi = i
		}
	}
	set[vi] = tlbEntry{vpn: vpn, valid: true, lastUse: now}
}

// Flush removes vpn if present (TLB shootdown on migration).
func (t *TLB) Flush(vpn uint64) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
		}
	}
}

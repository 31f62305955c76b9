// Package vm models the GPU's unified-memory address translation: per-SM
// L1 TLBs, a shared multi-ported L2 TLB, a pool of concurrent page-table
// walkers and the fixed 20 us first-touch page-fault penalty, following
// the two-level design of Table 1.
package vm

import (
	"github.com/nuba-gpu/nuba/internal/cache"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// TLB is a set-associative translation lookaside buffer with LRU
// replacement: a cache.Cache whose lines are virtual page numbers. It
// tracks only VPNs; physical mappings are always fetched from the driver
// so migrations and replica placement stay coherent by construction (a
// TLB shootdown is modeled by flushing the VPN, which forces the latency
// of a re-walk).
type TLB cache.Cache

// NewTLB returns a TLB with entries total entries and the given
// associativity. entries must be a multiple of ways.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("vm: TLB geometry invalid")
	}
	return (*TLB)(cache.New(entries/ways, ways, cache.WriteThrough))
}

// tags returns t as the cache it is, and line the line it holds vpn at:
// one line per page, so vpn's set is vpn % sets.
func (t *TLB) tags() *cache.Cache { return (*cache.Cache)(t) }
func line(vpn uint64) uint64      { return vpn * sim.LineSize }

// Lookup probes for vpn at cycle now, updating LRU state.
func (t *TLB) Lookup(vpn uint64, now int64) bool { return t.tags().Access(line(vpn), false, now) }

// Insert fills vpn, evicting the LRU entry of its set if needed.
func (t *TLB) Insert(vpn uint64, now int64) { t.tags().Insert(line(vpn), false, false, now) }

// Flush removes vpn if present (TLB shootdown on migration).
func (t *TLB) Flush(vpn uint64) { t.tags().Invalidate(line(vpn)) }

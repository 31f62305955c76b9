// Package sim provides the low-level primitives of the NUBA cycle-level
// simulator: the simulation clock, deterministic pseudo-random numbers,
// bounded queues, bandwidth-limited links and the memory request type that
// flows between the SMs, caches, NoC and DRAM models.
//
// The simulator is cycle-driven: the core assembly ticks every component
// once per core clock cycle (1.4 GHz in the baseline configuration) in a
// fixed order. Components communicate exclusively through Queue and Link
// values, which makes every run deterministic for a given configuration
// and seed.
package sim

// Cycle counts core clock cycles since the start of a simulation. The
// baseline core clock is 1.4 GHz, so one Cycle is ~0.714 ns.
type Cycle = int64

// Never is a sentinel wake-up hint meaning "no self-scheduled work": the
// component cannot make progress until an external event (a message
// arrival, a fill, a kernel launch) re-activates it. It is far beyond any
// reachable cycle count yet small enough that arithmetic on it cannot
// overflow.
const Never Cycle = 1 << 62

// ReqKind identifies the operation a memory request performs.
type ReqKind uint8

// Memory request kinds.
const (
	// Load is a global memory read of one cache line.
	Load ReqKind = iota
	// Store is a global memory write. L1 caches are write-through and
	// write-no-allocate, so stores always propagate to the LLC.
	Store
	// Atomic is a read-modify-write handled at the LLC (the raster
	// operation units in the paper's terminology). Atomics are never
	// replicated and always execute at the home slice.
	Atomic
)

// String returns a short human-readable name for the request kind.
func (k ReqKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	default:
		return "unknown"
	}
}

// MemReq is a single cache-line-sized memory transaction after coalescing.
// A MemReq is created by an SM's load/store unit, travels through the L1,
// the interconnect, an LLC slice and possibly DRAM, and is finally returned
// to the SM as a reply. The same value is reused for the reply to avoid
// allocation churn; direction is implied by which queue carries it. Whoever
// created it retires it to a ReqPool, after which the object is another
// access's: nothing may hold the pointer past that hand-off.
//
// A MemReq is one 64 B host cache line (DESIGN.md §3): the word-sized
// fields first, then the int16 indices (Config.Validate bounds the machine
// they index), then the narrow fields.
type MemReq struct {
	// Addr is the physical address of the first byte of the transaction.
	// Line requests are aligned to the 128 B line size.
	Addr uint64
	// VAddr is the virtual address that produced Addr, kept for
	// sharing-degree accounting and debugging.
	VAddr uint64
	// Issue is the cycle at which the request left the SM's L1.
	Issue Cycle

	// Next links the request into at most one list at a time: its pool's
	// free list while idle, one MSHR entry's waiter chain while merged.
	// Read it before handing the request on (DESIGN.md §3).
	Next *MemReq

	// pool is the free list that handed the request out (nil for one built
	// with a literal; see ReqPool); idle, the last field, marks it returned.
	pool *ReqPool

	// ID numbers the request within its issuing SM (SM names the SM).
	ID uint32
	// SM is the index of the issuing SM.
	SM int16
	// Warp is the issuing hardware warp slot within the SM.
	Warp int16
	// Slice is the home LLC slice as determined by the address mapping
	// policy. For replicated requests this remains the home slice; the
	// replica slice is carried in ReplicaSlice.
	Slice int16
	// Channel is the home memory channel, decoded once where the request
	// is created or first routed and read by everything that routes
	// toward memory; -1 until then.
	Channel int16
	// ReplicaSlice is the local slice that holds (or will hold) a
	// replica when the request takes the replication path; -1 otherwise.
	ReplicaSlice int16

	// Kind is the operation performed.
	Kind ReqKind
	// DstReg is the destination register the reply feeds (-1 for stores).
	DstReg int8
	// Size is the transaction size in bytes (always the 128 B line size
	// for global accesses in this model).
	Size uint8
	// ReadOnly marks requests produced by ld.global.ro instructions,
	// i.e. loads that the compiler proved touch read-only data within
	// the kernel. Only these are candidates for MDR replication.
	ReadOnly bool
	// Remote records whether the request crossed the inter-partition NoC.
	Remote bool
	// Replicated records whether the request was serviced through the
	// replication path (hit or fill in a local replica).
	Replicated bool
	// MergedBehind reports that the request was merged into an existing
	// MSHR entry rather than issued to memory.
	MergedBehind bool
	// Inval marks an SM-side UBA coherence invalidation: the receiving
	// slice drops the line and produces no reply.
	Inval bool
	idle  bool
}

// IsWrite reports whether the request modifies memory.
func (r *MemReq) IsWrite() bool { return r.Kind == Store || r.Kind == Atomic }

// Request and reply sizes in bytes, matching the paper's accounting: a read
// request carries only the 8 B address; a reply or a write carries the
// 128 B line plus 8 B of control.
const (
	// LineSize is the cache line and memory transaction size.
	LineSize = 128
	// CtrlBytes is the per-message control overhead.
	CtrlBytes = 8
	// ReqBytes is the size of a read request or a write acknowledgement.
	ReqBytes = CtrlBytes
	// DataBytes is the size of a message that carries a full line
	// (read reply or write request).
	DataBytes = LineSize + CtrlBytes
)

// MessageBytes returns the on-wire size of a request in the given
// direction. Requests carrying data (stores, replies to loads) cost
// DataBytes; address-only messages cost ReqBytes.
func MessageBytes(r *MemReq, reply bool) int {
	if reply {
		if r.Kind == Store {
			return ReqBytes // write acknowledgement
		}
		return DataBytes // load/atomic reply with data
	}
	if r.IsWrite() {
		return DataBytes // write request carries the line
	}
	return ReqBytes // read request carries only the address
}

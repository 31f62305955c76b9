package sim

// ReqPool is a free list of MemReqs, chained through MemReq.Next. One
// simulation is one goroutine, so the list needs no lock. It is never
// pre-filled: an empty list refills from one fresh slab (Slab), so a pool
// that grows to n requests allocates about n/slabCap times, not n.
//
// The ownership rule (DESIGN.md §3): the component that creates a request
// retires it, on its own list. Put therefore ignores a request this list
// did not hand out — a test or a layer rig may feed a component requests
// of its own and recycle them itself — and panics on a request that is
// already back, because a second holder of that pointer would be reading
// the next access's fields.
//
// A nil *ReqPool is valid: Get allocates and Put drops, which is what a
// slice or channel built without a GPU around it wants.
type ReqPool struct {
	free *MemReq // idle requests, chained through Next
	slab int     // length of the next refill
	out  int64   // requests handed out by Get
	back int64   // requests returned by Put
}

// slabCap is the longest slab a free list refills from: long enough that
// a machine's working set costs few allocations, short enough that a
// list's unused tail stays small on a machine that needs few requests.
const slabCap = 16

// Slab refills the empty free list *free from one fresh slab of *size
// objects: it chains all but the first through link, returns the first and
// doubles *size for the next refill, from 1 up to slabCap.
func Slab[T any](size *int, free **T, link func(*T) **T) *T {
	s := make([]T, max(*size, 1))
	*size = min(2*len(s), slabCap)
	for i := len(s) - 1; i > 0; i-- {
		*link(&s[i]), *free = *free, &s[i]
	}
	return &s[0]
}

// Resize returns s cleared and of length n, reallocated only when too
// short: what sizes a table once for the largest user it has had.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Carve is Slab for objects that never come back: it returns the next
// object of *slab, first refilling an empty *slab with a fresh slab of
// *size objects and doubling *size for the next refill, from 1 up to limit.
func Carve[T any](size *int, slab *[]T, limit int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, max(*size, 1))
		*size = min(2*len(*slab), limit)
	}
	x := &(*slab)[0]
	*slab = (*slab)[1:]
	return x
}

// Get returns a request holding exactly v: a recycled one is overwritten
// whole, never field-patched.
func (p *ReqPool) Get(v MemReq) *MemReq {
	var r *MemReq
	switch {
	case p == nil:
		r = new(MemReq)
	case p.free == nil:
		r = Slab(&p.slab, &p.free, func(r *MemReq) **MemReq { return &r.Next })
	default:
		r, p.free = p.free, p.free.Next
	}
	*r = v
	r.pool, r.idle, r.Next = p, false, nil
	if p != nil {
		p.out++
	}
	return r
}

// Put retires r. The caller must not read r afterwards.
func (p *ReqPool) Put(r *MemReq) {
	if p == nil || r.pool != p {
		return
	}
	if r.idle {
		panic("sim: MemReq released twice")
	}
	r.idle = true
	p.back++
	r.Next, p.free = p.free, r
}

// Live returns how many requests Get handed out that Put has not seen
// again: zero once everything the owner created has retired.
func (p *ReqPool) Live() int64 {
	if p == nil {
		return 0
	}
	return p.out - p.back
}

package sim

// ReqPool is a free list of MemReqs. One simulation is one goroutine, so
// the list needs no lock; it grows on demand and is never pre-filled.
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
	free []*MemReq
	out  int64 // requests handed out by Get
	back int64 // requests returned by Put
}

// Get returns a request holding exactly v: a recycled one is overwritten
// whole, never field-patched.
func (p *ReqPool) Get(v MemReq) *MemReq {
	var r *MemReq
	if p != nil && len(p.free) > 0 {
		n := len(p.free) - 1
		r, p.free = p.free[n], p.free[:n]
	} else {
		r = new(MemReq)
	}
	*r = v
	r.pool, r.idle = p, false
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
	p.free = append(p.free, r)
}

// Live returns how many requests Get handed out that Put has not seen
// again: zero once everything the owner created has retired.
func (p *ReqPool) Live() int64 {
	if p == nil {
		return 0
	}
	return p.out - p.back
}

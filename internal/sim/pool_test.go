package sim

import (
	"testing"
	"unsafe"
)

// freeLen counts the requests on p's free list.
func freeLen(p *ReqPool) int {
	n := 0
	for r := p.free; r != nil; r = r.Next {
		n++
	}
	return n
}

func TestReqPoolRecyclesAndResetsWhole(t *testing.T) {
	var p ReqPool
	a := p.Get(MemReq{ID: 1, Kind: Atomic, Addr: 0x80, Remote: true, Replicated: true, MergedBehind: true})
	if p.Live() != 1 {
		t.Fatalf("live %d after one Get", p.Live())
	}
	p.Put(a)
	if p.Live() != 0 {
		t.Fatalf("live %d after Put", p.Live())
	}
	b := p.Get(MemReq{ID: 2, ReplicaSlice: -1})
	if b != a {
		t.Fatal("a returned request was not reused")
	}
	// Nothing of the previous access survives: the object equals one
	// built from the literal, apart from the pool's own bookkeeping.
	want := MemReq{ID: 2, ReplicaSlice: -1, pool: &p}
	if *b != want {
		t.Fatalf("recycled request not fully reset:\n got %+v\nwant %+v", *b, want)
	}
}

func TestReqPoolDoubleReleasePanics(t *testing.T) {
	var p ReqPool
	r := p.Get(MemReq{})
	p.Put(r)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same request did not panic")
		}
	}()
	p.Put(r)
}

func TestReqPoolIgnoresRequestsItDidNotCreate(t *testing.T) {
	var p, other ReqPool
	p.Put(&MemReq{ID: 7}) // a test's or a rig's own request
	foreign := other.Get(MemReq{ID: 8})
	p.Put(foreign)
	p.Put(foreign) // still not p's: no panic, no effect
	if p.Live() != 0 || freeLen(&p) != 0 {
		t.Fatalf("foreign requests entered the list: live %d, free %d", p.Live(), freeLen(&p))
	}
	if other.Live() != 1 {
		t.Fatalf("owner's count disturbed: live %d", other.Live())
	}
	if got := p.Get(MemReq{}); got == foreign {
		t.Fatal("handed out a request it does not own")
	}
}

func TestNilReqPoolAllocatesAndDrops(t *testing.T) {
	var p *ReqPool
	r := p.Get(MemReq{ID: 9, Kind: Store})
	if r == nil || r.ID != 9 || r.Kind != Store {
		t.Fatalf("nil pool Get returned %+v", r)
	}
	p.Put(r)
	p.Put(r) // dropping twice is still dropping
	if p.Live() != 0 {
		t.Fatal("nil pool counts")
	}
}

func TestReqPoolSteadyStateAllocatesNothing(t *testing.T) {
	var p ReqPool
	held := make([]*MemReq, 0, 16)
	cycle := func() {
		for i := 0; i < 16; i++ {
			held = append(held, p.Get(MemReq{ID: uint32(i)}))
		}
		for _, r := range held {
			p.Put(r)
		}
		held = held[:0]
	}
	cycle() // grow to the working set
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%.0f allocations per steady-state cycle", n)
	}
}

// TestReqPoolWarmsUpOneAllocationPerSlab grows fresh pools to n requests:
// each pool costs one allocation for itself (its requests point back at
// it) and one per slab, whose lengths double from 1 up to slabCap, never
// one per request.
func TestReqPoolWarmsUpOneAllocationPerSlab(t *testing.T) {
	const n = 100
	slabs := 0
	for got, size := 0, 1; got < n; size = min(2*size, slabCap) {
		got += size
		slabs++
	}
	held := make([]*MemReq, n)
	allocs := testing.AllocsPerRun(20, func() {
		p := new(ReqPool)
		for i := range held {
			held[i] = p.Get(MemReq{ID: uint32(i)})
		}
		for _, r := range held {
			p.Put(r)
		}
		if freeLen(p) < n {
			t.Fatalf("free list holds %d of %d returned requests", freeLen(p), n)
		}
	})
	if allocs > float64(slabs+1) {
		t.Fatalf("a fresh pool of %d requests made %.0f allocations, want at most %d (%d slabs and the pool)", n, allocs, slabs+1, slabs)
	}
}

// TestMemReqFitsOneSizeClass pins a request at 64 B: one host cache line,
// and a size class a slab of them packs without waste (DESIGN.md §3
// "Request lifetime").
func TestMemReqFitsOneSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(MemReq{}); n != 64 {
		t.Fatalf("MemReq is %d B, want 64", n)
	}
}

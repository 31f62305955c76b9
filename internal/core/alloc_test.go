package core

import (
	"runtime"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
)

// The allocation gate: the memory-request path allocates
// nothing in steady state. The same streaming kernel runs at G and at 2G
// CTAs on a fresh GPU each; the second run does everything the first does
// plus G more CTAs' worth of loads, stores, misses, fills and writebacks,
// so the difference in heap objects divided by the difference in LLC
// accesses is what one more access costs. Requests, LSU accesses, MSHR
// entries, writebacks and walk records all come from free lists that stop
// growing once the machine is full, so that cost is page-table growth and
// little else; putting one allocation per miss or per writeback back
// anywhere on the path fails the bound.
//
// The warm-up, the run that fills those lists, has its own bound: requests,
// MSHR entries and LSU access records come from slabs and merged waiters
// chain through the requests themselves, so filling the machine costs one
// allocation per slab, not one per object or per doubling of a waiter
// slice. The same goes for the state an SM sizes at a launch — warp
// contexts, register files, lane vectors, the CTA table — and for the
// driver's page records.
//
// Counting runtime.MemStats.Mallocs over a single-goroutine simulation is
// deterministic: the same launch allocates the same objects every time.

// maxObjectsPerLLCAccess bounds the marginal heap objects per LLC access.
// The run measures 0.09: about three objects per newly touched 4 KiB page
// (the driver's record, page-table and TLB map growth), 32 lines a page,
// each line read once and written once. The smallest thing this has to
// catch — one object per load miss, or per writeback — adds 0.5; the
// parent of the change that introduced the free lists measured 5.0 on
// NUBA and 16.4 on memory-side UBA.
const maxObjectsPerLLCAccess = 0.25

// maxWarmUpObjects bounds the heap objects of a whole grid-256 run on the
// 8-SM test GPU. The run measures about 1,075 on NUBA and 930 on
// memory-side UBA; 1,236 and 1,116 while the kernel-boundary flush made all
// its writebacks at once. With warp state built one object at a time it
// measured 5,501 and 5,404; with the request and MSHR lists growing one
// object at a time as well, and waiters in slices, 12,305 and 11,010.
const maxWarmUpObjects = 2000

func runCounted(t *testing.T, arch config.Arch, grid int) (objects uint64, llcAccesses int64) {
	t.Helper()
	g := MustNew(tinyConfig(arch))
	l := tinyLaunch(t, g, grid, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := g.RunProgram([]*kir.Launch{l}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := g.LiveRequests(); n != 0 {
		t.Fatalf("%d requests never retired", n)
	}
	return after.Mallocs - before.Mallocs, g.Stats().LLCAccesses
}

func TestRequestPathAllocatesNothingPerAccess(t *testing.T) {
	const grid = 256 // 4 waves of CTAs on the 8-SM test GPU: the lists are full long before the end
	for _, arch := range []config.Arch{config.NUBA, config.UBAMem} {
		obj1, acc1 := runCounted(t, arch, grid)
		obj2, acc2 := runCounted(t, arch, 2*grid)
		if acc2 <= acc1 {
			t.Fatalf("%v: doubling the grid did not add LLC accesses (%d -> %d)", arch, acc1, acc2)
		}
		per := (float64(obj2) - float64(obj1)) / float64(acc2-acc1)
		t.Logf("%v: %d -> %d objects over %d -> %d LLC accesses: %.4f objects per extra access",
			arch, obj1, obj2, acc1, acc2, per)
		if per > maxObjectsPerLLCAccess {
			t.Errorf("%v: %.3f heap objects per extra LLC access, bound %.2f: something on the request path allocates per access",
				arch, per, maxObjectsPerLLCAccess)
		}
	}
}

func TestWarmUpAllocatesPerSlab(t *testing.T) {
	for _, arch := range []config.Arch{config.NUBA, config.UBAMem} {
		if obj, _ := runCounted(t, arch, 256); obj > maxWarmUpObjects {
			t.Errorf("%v: a whole run made %d heap objects, bound %d: a free list or a launch's warp state grows one object at a time", arch, obj, maxWarmUpObjects)
		}
	}
}

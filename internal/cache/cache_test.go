package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

func ln(i uint64) uint64 { return i * sim.LineSize }

func TestAccessHitMiss(t *testing.T) {
	c := New(4, 2, WriteBack)
	if c.Access(ln(1), false, 0) {
		t.Fatal("cold access hit")
	}
	c.Insert(ln(1), false, false, 1)
	if !c.Access(ln(1), false, 2) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 || c.Accesses != 2 {
		t.Fatalf("counter mismatch: %+v", c)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2, WriteBack) // one set, two ways
	c.Insert(ln(0), false, false, 0)
	c.Insert(ln(1), false, false, 1)
	c.Access(ln(0), false, 2) // 0 is now MRU
	victim, _ := c.Insert(ln(2), false, false, 3)
	if victim != ln(1) {
		t.Fatalf("evicted %#x, want line 1 (LRU)", victim)
	}
	if !c.Probe(ln(0)) || !c.Probe(ln(2)) || c.Probe(ln(1)) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := New(1, 1, WriteBack)
	c.Insert(ln(0), true, false, 0) // dirty
	victim, wb := c.Insert(ln(1), false, false, 1)
	if !wb || victim != ln(0) {
		t.Fatalf("expected dirty writeback of line 0, got victim=%#x wb=%v", victim, wb)
	}
	// Clean eviction: no writeback.
	_, wb = c.Insert(ln(2), false, false, 2)
	if wb {
		t.Fatal("clean line produced writeback")
	}
}

func TestWriteThroughInvalidatesOnWrite(t *testing.T) {
	c := New(2, 2, WriteThrough)
	c.Insert(ln(0), false, false, 0)
	if !c.Access(ln(0), true, 1) {
		t.Fatal("write should report tag presence")
	}
	if c.Probe(ln(0)) {
		t.Fatal("write-no-allocate must drop the line")
	}
}

func TestWriteBackDirtyOnWriteHit(t *testing.T) {
	c := New(2, 2, WriteBack)
	c.Insert(ln(0), false, false, 0)
	c.Access(ln(0), true, 1) // dirties
	_, wb := c.Insert(ln(2), false, false, 2)
	_ = wb
	// Force eviction of line 0: fill its set.
	set := c.SetIndex(ln(0))
	filled := 0
	for i := uint64(1); filled < 3; i++ {
		if c.SetIndex(ln(i)) == set {
			c.Insert(ln(i), false, false, int64(3+i))
			filled++
		}
	}
	if c.Writebacks == 0 {
		t.Fatal("dirtied line never wrote back")
	}
}

func TestInvalidateAllReturnsDirtyLines(t *testing.T) {
	c := New(4, 2, WriteBack)
	c.Insert(ln(0), true, false, 0)
	c.Insert(ln(1), false, false, 1)
	c.Insert(ln(2), true, false, 2)
	n := c.DirtyLines()
	var dirty []uint64
	c.InvalidateAll(func(line uint64) { dirty = append(dirty, line) })
	if n != 2 || len(dirty) != 2 || dirty[0] != ln(0) || dirty[1] != ln(2) {
		t.Fatalf("counted %d dirty lines, flushed %#x; want ln(0) and ln(2)", n, dirty)
	}
	if c.Occupancy() != 0 {
		t.Fatal("cache not empty after flush")
	}
}

func TestInvalidateReplicas(t *testing.T) {
	c := New(4, 2, WriteBack)
	c.Insert(ln(0), false, true, 0)
	c.Insert(ln(1), false, false, 1)
	c.Insert(ln(2), false, true, 2)
	if n := c.InvalidateReplicas(); n != 2 {
		t.Fatalf("dropped %d replicas, want 2", n)
	}
	if c.Probe(ln(0)) || !c.Probe(ln(1)) || c.Probe(ln(2)) {
		t.Fatal("wrong survivors after replica drop")
	}
}

func TestInsertRefillMergesDirty(t *testing.T) {
	c := New(2, 2, WriteBack)
	c.Insert(ln(0), true, false, 0)
	c.Insert(ln(0), false, false, 1) // refill of present line
	// Still dirty: evicting must write back.
	set := c.SetIndex(ln(0))
	filled := 0
	for i := uint64(1); filled < 2; i++ {
		if c.SetIndex(ln(i)) == set {
			c.Insert(ln(i), false, false, int64(2+i))
			filled++
		}
	}
	if c.Writebacks != 1 {
		t.Fatalf("dirty bit lost on refill: writebacks=%d", c.Writebacks)
	}
}

// TestCacheMatchesModel checks, via testing/quick, that cache contents
// always equal a reference model (map from set to LRU-ordered lines).
func TestCacheMatchesModel(t *testing.T) {
	const sets, ways = 4, 3
	f := func(refs []uint16) bool {
		c := New(sets, ways, WriteBack)
		model := make(map[int][]uint64) // set -> lines, MRU first
		now := int64(0)
		for _, r := range refs {
			now++
			addr := ln(uint64(r % 64))
			set := c.SetIndex(addr)
			la := c.LineAddr(addr)
			// Model lookup.
			lines := model[set]
			found := -1
			for i, l := range lines {
				if l == la {
					found = i
					break
				}
			}
			hit := c.Access(addr, false, now)
			if hit != (found >= 0) {
				return false
			}
			if found >= 0 {
				// Move to MRU.
				lines = append(lines[:found], lines[found+1:]...)
				model[set] = append([]uint64{la}, lines...)
				continue
			}
			now++
			c.Insert(addr, false, false, now)
			lines = append([]uint64{la}, lines...)
			if len(lines) > ways {
				lines = lines[:ways]
			}
			model[set] = lines
		}
		// Final contents must agree.
		for set, lines := range model {
			for _, l := range lines {
				if !c.Probe(l) {
					return false
				}
			}
			_ = set
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRMergeAndRelease(t *testing.T) {
	m := NewMSHRFile(2)
	r1 := &sim.MemReq{ID: 1}
	r2 := &sim.MemReq{ID: 2}
	r3 := &sim.MemReq{ID: 3}
	e, merged, ok := m.Allocate(ln(0), r1, 0)
	if !ok || merged || e.Primary != r1 {
		t.Fatal("primary allocation failed")
	}
	_, merged, ok = m.Allocate(ln(0), r2, 1)
	if !ok || !merged {
		t.Fatal("secondary miss not merged")
	}
	if !r2.MergedBehind {
		t.Fatal("merged flag not set")
	}
	m.Allocate(ln(1), r3, 2)
	if !m.Full() {
		t.Fatal("file should be full at capacity 2")
	}
	if _, _, ok := m.Allocate(ln(2), r3, 3); ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.StallsFull != 1 {
		t.Fatalf("stall counter = %d", m.StallsFull)
	}
	e, ok = m.Release(ln(0))
	if !ok || e.Waiters != r2 || r2.Next != nil {
		t.Fatal("release lost waiters")
	}
	if _, ok := m.Release(ln(0)); ok {
		t.Fatal("double release succeeded")
	}
	if m.Merges != 1 {
		t.Fatalf("merge counter = %d", m.Merges)
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero sets")
		}
	}()
	New(0, 1, WriteBack)
}

// TestRecordsFitHostLines pins the sizes of the records every hop of the
// memory path touches beside the request (DESIGN.md §3 "Request
// lifetime"): a tag entry is 16 B, a NoC message 32 B. The 64 B request is
// pinned by sim's TestMemReqFitsOneSizeClass.
func TestRecordsFitHostLines(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"cache line", unsafe.Sizeof(line{}), 16},
		{"noc.Msg", unsafe.Sizeof(noc.Msg{}), 32},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d B, want %d", r.name, r.got, r.want)
		}
	}
}

// TestTopLineKeepsItsFlags: a tag entry keeps its flags in the line offset
// bits, so even the highest line address neither aliases another line nor
// loses or gains a flag.
func TestTopLineKeepsItsFlags(t *testing.T) {
	top := ^uint64(sim.LineSize - 1)
	c := New(1, 1, WriteBack)
	c.Insert(top, true, true, 0)
	if !c.Probe(top|(sim.LineSize-1)) || c.Probe(top-sim.LineSize) || c.Probe(0) {
		t.Fatal("the top line does not hit alone")
	}
	if victim, wb := c.Insert(0, false, false, 1); victim != top || !wb {
		t.Fatalf("evicting the top line gave %#x, writeback %v; want %#x, true", victim, wb, top)
	}
	if c.Insert(top, false, false, 2); c.InvalidateReplicas() != 0 {
		t.Fatal("a clean fill of the top line kept the replica flag")
	}
	if victim, wb := c.Insert(0, false, false, 3); victim != top || wb {
		t.Fatalf("evicting the clean top line gave %#x, writeback %v", victim, wb)
	}
}

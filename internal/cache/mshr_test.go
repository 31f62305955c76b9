package cache

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// mshrLines is how many distinct lines an MSHR op sequence draws from:
// few enough against tables of 2–16 slots that probe runs collide, wrap
// past the table's end and close up behind every Release.
const mshrLines = 24

// randomMSHROps returns n seeded op bytes for FuzzMSHRFile's corpus.
func randomMSHROps(seed uint64, n int) []byte {
	rng := sim.NewRNG(seed)
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
	}
	return ops
}

// FuzzMSHRFile holds MSHRFile to a map: after every Allocate, Admit,
// Lookup or Release the file must report what the map does — the same
// entries under the same lines, each with the requests merged behind it in
// merge order, Len, Full, Each's set, the counters — and Each must list
// its entries in the same order twice. Requests come from a sim.ReqPool and
// go back to it once their entry is released, as the SM's do, so entries
// and requests are both recycled with stale links in them. The first byte
// of an op sequence picks a capacity of 1–8, every later byte an op (its
// top three bits) on a line (the rest, modulo mshrLines).
func FuzzMSHRFile(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x21, 0x61, 0x61})                   // capacity 1: allocate, merge, release, release again
	f.Add([]byte{1, 0x00, 0x01, 0x02, 0x42, 0x60, 0x02, 0x61}) // capacity 2: fill, stall, drain
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(randomMSHROps(seed, 400))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0])%8
		m := NewMSHRFile(capacity)
		model := map[uint64]*MSHREntry{}
		waiters := map[uint64][]*sim.MemReq{} // by line, in merge order
		var reqs sim.ReqPool
		var merges, stalls int64
		for step, op := range ops[1:] {
			line := ln(uint64(op&0x1f) % mshrLines)
			now := sim.Cycle(step)
			want, exists := model[line]
			switch op >> 5 {
			case 0, 1: // Allocate
				req := reqs.Get(sim.MemReq{ID: uint32(step)})
				e, merged, ok := m.Allocate(line, req, now)
				switch {
				case exists:
					merges++
					if !ok || !merged || e != want {
						t.Fatalf("op %d: Allocate(%#x) on an outstanding line = %p/%v/%v, want a merge into %p", step, line, e, merged, ok, want)
					}
					waiters[line] = append(waiters[line], req)
				case len(model) >= capacity:
					stalls++
					if ok {
						t.Fatalf("op %d: Allocate(%#x) succeeded in a full file", step, line)
					}
					reqs.Put(req)
				default:
					if !ok || merged || e.Line != line || e.Primary != req || e.Waiters != nil || e.Allocated != now {
						t.Fatalf("op %d: Allocate(%#x) = %+v/%v/%v, want a fresh entry", step, line, e, merged, ok)
					}
					model[line] = e
				}
			case 2: // Admit
				merge, ok := m.Admit(line)
				if !exists && len(model) >= capacity {
					stalls++
				}
				if merge != exists || ok != (exists || len(model) < capacity) {
					t.Fatalf("op %d: Admit(%#x) = %v/%v with %d of %d held, line held %v", step, line, merge, ok, len(model), capacity, exists)
				}
			case 3, 4, 5: // Release
				e, ok := m.Release(line)
				if ok != exists || e != want {
					t.Fatalf("op %d: Release(%#x) = %p/%v, want %p/%v", step, line, e, ok, want, exists)
				}
				if ok {
					if e.Line != line {
						t.Fatalf("op %d: released entry reads line %#x, want %#x", step, e.Line, line)
					}
					checkWaiters(t, step, e, waiters[line])
					reqs.Put(e.Primary)
					for r := e.Waiters; r != nil; {
						next := r.Next
						reqs.Put(r)
						r = next
					}
				}
				delete(model, line)
				delete(waiters, line)
			default: // Lookup
				if e, ok := m.Lookup(line); ok != exists || e != want {
					t.Fatalf("op %d: Lookup(%#x) = %p/%v, want %p/%v", step, line, e, ok, want, exists)
				}
			}
			checkMSHRFile(t, step, m, model, waiters, capacity)
			if m.Merges != merges || m.StallsFull != stalls {
				t.Fatalf("op %d: Merges %d StallsFull %d, want %d %d", step, m.Merges, m.StallsFull, merges, stalls)
			}
		}
	})
}

// checkMSHRFile compares every line's Lookup and waiters, Len, Full and
// Each with the model.
func checkMSHRFile(t *testing.T, step int, m *MSHRFile, model map[uint64]*MSHREntry, waiters map[uint64][]*sim.MemReq, capacity int) {
	t.Helper()
	for i := uint64(0); i < mshrLines; i++ {
		want, exists := model[ln(i)]
		e, ok := m.Lookup(ln(i))
		if ok != exists || e != want {
			t.Fatalf("op %d: line %#x reads %p/%v, want %p/%v", step, ln(i), e, ok, want, exists)
		}
		if ok {
			checkWaiters(t, step, e, waiters[ln(i)])
		}
	}
	if m.Len() != len(model) || m.Full() != (len(model) >= capacity) {
		t.Fatalf("op %d: Len %d Full %v, want %d of %d", step, m.Len(), m.Full(), len(model), capacity)
	}
	var first, second []*MSHREntry
	m.Each(func(e *MSHREntry) { first = append(first, e) })
	m.Each(func(e *MSHREntry) { second = append(second, e) })
	if len(first) != len(model) {
		t.Fatalf("op %d: Each visits %d entries, want %d", step, len(first), len(model))
	}
	for i, e := range first {
		if model[e.Line] != e || second[i] != e {
			t.Fatalf("op %d: Each's entry %d (line %#x) is not the model's, or moved between two walks", step, i, e.Line)
		}
	}
}

// checkWaiters compares e's waiter chain with the requests merged behind
// it, in merge order.
func checkWaiters(t *testing.T, step int, e *MSHREntry, want []*sim.MemReq) {
	t.Helper()
	var got []*sim.MemReq
	for r := e.Waiters; r != nil && len(got) <= len(want); r = r.Next {
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("op %d: line %#x chains %d waiters, want %d", step, e.Line, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("op %d: line %#x waiter %d is request %d, want %d", step, e.Line, k, got[k].ID, want[k].ID)
		}
	}
}

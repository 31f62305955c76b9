package vm

import (
	"fmt"
	"testing"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/driver"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
)

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB(4, 2) // 2 sets, 2 ways
	// VPNs 0 and 2 share set 0.
	tlb.Insert(0, 1)
	tlb.Insert(2, 2)
	tlb.Lookup(0, 3) // refresh 0
	tlb.Insert(4, 4) // evicts 2 (LRU)
	if !tlb.Lookup(0, 5) || tlb.Lookup(2, 6) || !tlb.Lookup(4, 7) {
		t.Fatal("LRU eviction wrong")
	}
}

// A refill after a shootdown finds the VPN already in its set and does
// not store it a second time in the hole the shootdown left: the set still
// holds three distinct pages.
func TestTLBRefillAfterFlushKeepsOneCopy(t *testing.T) {
	tlb := NewTLB(3, 3) // one set
	tlb.Insert(1, 1)
	tlb.Insert(2, 2)
	tlb.Insert(3, 3)
	tlb.Flush(1)
	tlb.Insert(3, 4) // already present
	tlb.Insert(5, 5) // takes the hole
	if !tlb.Lookup(2, 6) || !tlb.Lookup(3, 7) || !tlb.Lookup(5, 8) {
		t.Fatal("a refill of a present VPN took a way")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8, 2)
	tlb.Insert(5, 0)
	tlb.Flush(5)
	if tlb.Lookup(5, 1) {
		t.Fatal("flushed entry still present")
	}
}

func newSystem(t *testing.T) (*System, *metrics.Stats, *config.Config) {
	t.Helper()
	cfg := config.Baseline()
	cfg.L2TLBLatency = 10
	cfg.PageWalkLatency = 100
	cfg.PageFaultLatency = 1000
	m := addrmap.New(&cfg)
	drv := driver.New(&cfg, m)
	st := &metrics.Stats{}
	return NewSystem(&cfg, drv, st), st, &cfg
}

func TestWalkFaultAndHitLatencies(t *testing.T) {
	s, st, cfg := newSystem(t)
	doneAt := sim.Cycle(-1)
	if !s.Request(0, 42, false, 0, func() { doneAt = -2 }) {
		t.Fatal("request rejected")
	}
	var now sim.Cycle
	for now = 1; now < 3000 && doneAt == -1; now++ {
		s.Tick(now)
		if doneAt == -2 {
			doneAt = now
		}
	}
	// First touch: L2 latency + walk + fault.
	min := cfg.L2TLBLatency + cfg.PageWalkLatency + cfg.PageFaultLatency
	if doneAt < min {
		t.Fatalf("fault completed at %d, expected >= %d", doneAt, min)
	}
	if st.PageFaults != 1 || st.PageWalks != 1 {
		t.Fatalf("faults=%d walks=%d", st.PageFaults, st.PageWalks)
	}
	// Second access: the L2 TLB now hits; completes after ~10 cycles.
	doneAt2 := sim.Cycle(-1)
	start := now
	s.Request(0, 42, false, now, func() { doneAt2 = 0 })
	for ; now < start+100 && doneAt2 != 0; now++ {
		s.Tick(now)
	}
	if doneAt2 != 0 {
		t.Fatal("L2 hit never completed")
	}
	if now-start > cfg.L2TLBLatency+3 {
		t.Fatalf("L2 hit took %d cycles", now-start)
	}
}

func TestWalkMerging(t *testing.T) {
	s, st, _ := newSystem(t)
	fired := 0
	for i := 0; i < 5; i++ {
		// Same cycle: only 2 ports; spread over cycles.
		now := sim.Cycle(i)
		s.Tick(now)
		if !s.Request(0, 77, false, now, func() { fired++ }) {
			t.Fatalf("request %d rejected", i)
		}
	}
	for now := sim.Cycle(5); now < 3000 && fired < 5; now++ {
		s.Tick(now)
	}
	if fired != 5 {
		t.Fatalf("only %d waiters fired", fired)
	}
	if st.PageWalks != 1 || st.PageFaults != 1 {
		t.Fatalf("merging failed: walks=%d faults=%d", st.PageWalks, st.PageFaults)
	}
}

func TestL2PortLimit(t *testing.T) {
	s, _, cfg := newSystem(t)
	accepted := 0
	for i := 0; i < 5; i++ {
		if s.Request(0, uint64(100+i), false, 7, func() {}) {
			accepted++
		}
	}
	if accepted != cfg.L2TLBPorts {
		t.Fatalf("accepted %d, want %d (port limit)", accepted, cfg.L2TLBPorts)
	}
}

func TestWalkerSaturation(t *testing.T) {
	s, st, cfg := newSystem(t)
	cfg.PageWalkers = 2
	fired := 0
	now := sim.Cycle(0)
	for i := 0; i < 6; i++ {
		now++
		s.Tick(now)
		s.Request(0, uint64(200+i), false, now, func() { fired++ })
	}
	for ; now < 20000 && fired < 6; now++ {
		s.Tick(now)
	}
	if fired != 6 {
		t.Fatalf("only %d/6 completed with 2 walkers", fired)
	}
	if st.PageWalks != 6 {
		t.Fatalf("walks=%d", st.PageWalks)
	}
	if !s.Idle() {
		t.Fatal("system still pending")
	}
}

// TestDebugStateNamesQueuedWalks fills the walker pool so that one walk
// waits for a walker: the hang report's line names the walks in flight,
// the queued one and the cycle the first walk completes.
func TestDebugStateNamesQueuedWalks(t *testing.T) {
	s, _, cfg := newSystem(t)
	cfg.PageWalkers = 2
	if got, want := s.DebugState(0), "walks=0 queued=0 walkers=0/2 next=never"; got != want {
		t.Fatalf("idle system reports %q, want %q", got, want)
	}
	for i := 0; i < 3; i++ {
		now := sim.Cycle(i)
		s.Tick(now)
		s.Request(0, uint64(300+i), false, now, func() {})
	}
	// Each first touch holds its walker for the walk, from the L2 miss on.
	next := cfg.L2TLBLatency + cfg.PageWalkLatency
	if got, want := s.DebugState(2), fmt.Sprintf("walks=2 queued=1 walkers=2/2 next=%d", next); got != want {
		t.Fatalf("saturated system reports %q, want %q", got, want)
	}
}

func TestShootdown(t *testing.T) {
	s, _, _ := newSystem(t)
	s.L2().Insert(9, 0)
	s.Shootdown(9)
	if s.L2().Lookup(9, 1) {
		t.Fatal("shootdown ineffective")
	}
}

func TestTLBGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad geometry")
		}
	}()
	NewTLB(5, 2) // not a multiple
}

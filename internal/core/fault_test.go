package core

import (
	"slices"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// seededKinds is one seeded-pick fault of every kind that has a target.
var seededKinds = []Fault{
	{Kind: WedgeSM, Target: -1},
	{Kind: StallLLC, Target: -1},
	{Kind: SlowLLC, Target: -1, Period: 8},
	{Kind: StallNoC, Target: -1},
	{Kind: DropDRAMReply, Target: -1},
}

// victims arms seededKinds (plus extra) on a fresh GPU and returns the
// component each one hit. The four freezes are read off the armed list;
// the dropped reply is found by behaviour — each channel's Respond port
// is offered a page-copy read, which memRespond retires on the spot, so
// the victim is the one channel that leaves its request live.
func victims(t *testing.T, seed uint64, extra ...Fault) [5]int {
	t.Helper()
	g := MustNew(tinyConfig(config.NUBA))
	if g.cfg.PartitionOfSM(len(g.sms)-1) == 0 {
		t.Fatal("test needs a multi-partition config")
	}
	if err := g.Inject(seed, slices.Concat(seededKinds, extra)...); err != nil {
		t.Fatal(err)
	}
	var v [5]int
	for i := range 4 {
		v[i] = g.flt.freezes[i].idx
	}
	v[4] = -1
	for c, ch := range g.chans {
		live := g.reqs.Live()
		ch.Respond(g.reqs.Get(sim.MemReq{Kind: sim.Load, SM: -1}))
		if g.reqs.Live() == live {
			continue
		}
		if v[4] >= 0 {
			t.Fatalf("channels %d and %d both swallow a reply", v[4], c)
		}
		v[4] = c
	}
	if v[4] < 0 {
		t.Fatal("no channel swallows a reply")
	}
	return v
}

// The seeded pick (Target -1) is a function of the seed and the fault's
// position alone, and every input Inject cannot arm is an error.
func TestInjectSeededTargets(t *testing.T) {
	a := victims(t, 1)
	if b := victims(t, 1); a != b {
		t.Errorf("seed 1 picked %v on one GPU and %v on the next", a, b)
	}
	if b := victims(t, 1, Fault{Kind: WedgeSM, Target: -1}, Fault{Kind: PanicAt, At: 1 << 40}); a != b {
		t.Errorf("appending faults re-rolled the earlier picks: %v -> %v", a, b)
	}
	if b := victims(t, 2); a == b {
		t.Errorf("seeds 1 and 2 pick the same victim for every kind: %v", a)
	}

	g := MustNew(tinyConfig(config.NUBA))
	for name, f := range map[string]Fault{
		"sm index = n":     {Kind: WedgeSM, Target: len(g.sms)},
		"slice index >= n": {Kind: StallLLC, Target: 10_000},
		"slow index >= n":  {Kind: SlowLLC, Target: 77, Period: 8},
		"xbar index >= n":  {Kind: StallNoC, Target: 99},
		"chan index = n":   {Kind: DropDRAMReply, Target: len(g.chans)},
		"chan index < -1":  {Kind: DropDRAMReply, Target: -3},
		"slice index < -1": {Kind: StallLLC, Target: -2},
		"slow period 0":    {Kind: SlowLLC},
		"slow period < 0":  {Kind: SlowLLC, Target: -1, Period: -4},
		"unknown kind":     {Kind: PanicAt + 1},
		"negative kind":    {Kind: -1},
	} {
		if err := g.Inject(1, f); err == nil {
			t.Errorf("%s: Inject(%+v) accepted", name, f)
		}
	}
	if len(g.flt.freezes) != 0 || g.flt.panicAt != 0 {
		t.Errorf("rejected faults left state armed: %+v", g.flt)
	}

	// What per-component fault structs could not express: two faults on
	// one slice. A stall over [2000, 4000) and a period-64 slowdown from
	// 2000 both hold — no tick inside the stall, not even on the
	// slowdown's beat, and one tick in 64 after it.
	stall, slow := Fault{Kind: StallLLC, At: 2000, Until: 4000}, Fault{Kind: SlowLLC, At: 2000, Period: 64}
	if err := g.Inject(1, stall, slow); err != nil {
		t.Fatal(err)
	}
	for now, want := range map[sim.Cycle]bool{
		1999:             false, // neither armed yet
		2000:             true,  // on the beat, but stalled
		2000 + 64:        true,
		3999:             true,
		4000:             true, // stall over, off the beat
		2000 + 32*64:     false,
		2000 + 32*64 + 1: true,
	} {
		if got := g.flt.frozen(StallLLC, 0, now); got != want {
			t.Errorf("slice 0 frozen at cycle %d = %v, want %v", now, got, want)
		}
	}
	if g.flt.frozen(StallLLC, 1, 3000) || g.flt.frozen(WedgeSM, 0, 3000) {
		t.Error("a slice-0 fault froze another component")
	}
	// And in a run: each costs cycles on top of the other alone.
	cycles := func(faults ...Fault) int64 {
		g, err := wdRun(t, 32768, faults...)
		if err != nil {
			t.Fatalf("%+v: %v", faults, err)
		}
		return g.Stats().Cycles
	}
	if both, a, b := cycles(stall, slow), cycles(stall), cycles(slow); both <= a || both <= b {
		t.Errorf("stall+slow on one slice ran %d cycles; stall alone %d, slow alone %d", both, a, b)
	}
}

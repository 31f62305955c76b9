package smcore

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// lsuBoundRig holds an SM in the state the bench/ ledger's two SM rows
// (8-cycle memory: issuing; 2000-cycle memory: every warp behind a load)
// both miss: operands ready, LSU full. 64 warps stream through a 16-entry
// MSHR file into a memory that never answers, so the first eight loads
// take the file, the next sixteen fill the LSU behind the stalled line,
// and the remaining forty warps stand at their load every cycle.
func lsuBoundRig(b *testing.B) (*testRig, sim.Cycle) {
	r := newRigWith(b, 1<<40, func(c *config.Config) {
		c.WarpsPerSM, c.MaxCTAsPerSM = 64, 32
		c.L1MSHRs = 16
	})
	r.sm.StartKernel(rigLaunch(b, 32, 4), 0, 32)
	now := sim.Cycle(0)
	for steady := 0; steady < 64; now++ {
		if now > 400000 {
			b.Fatal("never reached the LSU-bound state")
		}
		r.tick(now)
		if steady++; !r.sm.lsu.Full() || r.sm.L1MSHRStalls() == 0 {
			steady = 0
		}
	}
	waiting := 0
	for i := range r.sm.warps {
		if until, in, ok := scoreboardUntil(&r.sm.warps[i]); ok && until <= now && in.Op.IsMem() {
			waiting++
		}
	}
	if waiting < 32 {
		b.Fatalf("%d warps wait for an LSU entry, want at least 32", waiting)
	}
	return r, now
}

// BenchmarkTickLSUBound is one SM.Tick with forty warps waiting for an
// LSU entry: the state in which the schedulers used to re-walk every
// such warp's scoreboard each cycle.
func BenchmarkTickLSUBound(b *testing.B) {
	r, now := lsuBoundRig(b)
	instrs := r.stats.Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		r.sm.Tick(now)
	}
	if r.stats.Instructions != instrs {
		b.Fatalf("%d instructions issued: the state did not hold", r.stats.Instructions-instrs)
	}
}

var wakeSink sim.Cycle

// BenchmarkNextWakeLSUBound is the wake hint on the same state.
func BenchmarkNextWakeLSUBound(b *testing.B) {
	r, now := lsuBoundRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wakeSink += r.sm.NextWake(now)
	}
}

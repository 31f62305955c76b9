package smcore

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/driver"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/vm"
)

// testRig wires one SM to an ideal memory that answers every request
// after a fixed delay.
type testRig struct {
	sm      *SM
	stats   *metrics.Stats
	vmsys   *vm.System
	pending []*sim.MemReq
	ready   []sim.Cycle
	delay   sim.Cycle
	sent    int
}

func newRig(t *testing.T, delay sim.Cycle) *testRig {
	t.Helper()
	return newRigWith(t, delay, func(*config.Config) {})
}

// newRigWith is newRig with the configuration adjusted by mut.
func newRigWith(t *testing.T, delay sim.Cycle, mut func(*config.Config)) *testRig {
	t.Helper()
	cfg := config.Baseline()
	cfg.WarpsPerSM = 16
	cfg.MaxCTAsPerSM = 4
	mut(&cfg)
	m := addrmap.New(&cfg)
	drv := driver.New(&cfg, m)
	st := &metrics.Stats{}
	vmsys := vm.NewSystem(&cfg, drv, st)
	r := &testRig{stats: st, vmsys: vmsys, delay: delay}
	r.sm = New(0, 0, &cfg, st, metrics.NewSharingHistogram())
	r.sm.VMRequest = vmsys.Request
	r.sm.PageLookup = func(vpn uint64, now sim.Cycle) (uint64, bool, bool) {
		if p, ok := drv.Lookup(vpn); ok && p.BusyUntil > now {
			return 0, true, false
		}
		ppn, ok := drv.Translate(vpn, 0)
		return ppn, false, ok
	}
	r.sm.Send = func(req *sim.MemReq, now sim.Cycle) bool {
		r.sent++
		r.pending = append(r.pending, req)
		r.ready = append(r.ready, now+r.delay)
		return true
	}
	return r
}

func (r *testRig) tick(now sim.Cycle) {
	r.vmsys.Tick(now)
	r.sm.Tick(now)
	for i := 0; i < len(r.pending); {
		if r.ready[i] <= now {
			req := r.pending[i]
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			r.ready = append(r.ready[:i], r.ready[i+1:]...)
			r.sm.AcceptReply(req, now)
			continue
		}
		i++
	}
}

func (r *testRig) runToIdle(t *testing.T, limit sim.Cycle) sim.Cycle {
	t.Helper()
	for now := sim.Cycle(1); now < limit; now++ {
		r.tick(now)
		if r.sm.Idle() && len(r.pending) == 0 {
			return now
		}
	}
	t.Fatalf("SM did not go idle within %d cycles", limit)
	return 0
}

const rigKernel = `
.kernel rig
.param .ptr A
.param .ptr B
.param .u64 iters
  mov r0, %tid
  mov r1, %ctaid
  mov r2, %ntid
  mul r3, r1, r2
  mul r3, r3, iters
  add r3, r3, r0
  mov r4, 0
loop:
  mad r5, r4, r2, r3
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  fma r7, r7
  st.global.u64 [B + r6], r7
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  exit
`

func rigLaunch(t *testing.T, grid int, iters int64) *kir.Launch {
	t.Helper()
	k := kir.MustParse(rigKernel)
	kir.AnalyzeReadOnly(k)
	size := uint64(grid) * 64 * uint64(iters) * 8
	l := &kir.Launch{Kernel: k, GridDim: grid, CTAThreads: 64,
		Scalars: []int64{iters},
		Buffers: []kir.Binding{{Base: 1 << 20, Size: size}, {Base: 1 << 22, Size: size}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSMRunsKernelToCompletion(t *testing.T) {
	r := newRig(t, 50)
	l := rigLaunch(t, 4, 2)
	r.sm.StartKernel(l, 0, 4)
	r.runToIdle(t, 200000)
	// 4 CTAs x 2 warps x (7 prologue + 2*8 loop + 1 exit) instructions.
	want := int64(4 * 2 * (7 + 16 + 1))
	if r.stats.Instructions != want {
		t.Fatalf("instructions %d want %d", r.stats.Instructions, want)
	}
	if r.stats.Replies == 0 || r.sent == 0 {
		t.Fatal("no memory traffic")
	}
}

func TestSMCoalescing(t *testing.T) {
	// 64 threads/CTA, 8-byte elements: each warp's load covers exactly
	// two 128 B lines -> 2 requests per warp-load (plus stores).
	r := newRig(t, 10)
	l := rigLaunch(t, 1, 1)
	r.sm.StartKernel(l, 0, 1)
	r.runToIdle(t, 100000)
	// 2 warps x 1 iter: loads 2x2 lines, stores 2x2 lines = 8 requests.
	if r.sent != 8 {
		t.Fatalf("sent %d requests, want 8", r.sent)
	}
}

func TestSML1CapturesReuse(t *testing.T) {
	// Second kernel run over the same data with the same SM: loads hit
	// in L1 (data cached by the first run's fills).
	r := newRig(t, 10)
	l := rigLaunch(t, 1, 2)
	r.sm.StartKernel(l, 0, 1)
	r.runToIdle(t, 100000)
	missesFirst := r.stats.L1Misses
	r.sm.StartKernel(l, 0, 1)
	r.runToIdle(t, 200000)
	if r.stats.L1Misses != missesFirst {
		t.Fatalf("expected warm L1 (stores invalidated lines aside): %d -> %d",
			missesFirst, r.stats.L1Misses)
	}
}

func TestSMOccupancyLimits(t *testing.T) {
	// 16 warp slots, 2 warps per CTA, MaxCTAs 4 -> at most 4 resident
	// CTAs; 8 CTAs assigned must still all complete.
	r := newRig(t, 20)
	l := rigLaunch(t, 8, 1)
	r.sm.StartKernel(l, 0, 8)
	r.runToIdle(t, 400000)
	want := int64(8 * 2 * (7 + 8 + 1))
	if r.stats.Instructions != want {
		t.Fatalf("instructions %d want %d", r.stats.Instructions, want)
	}
}

func TestSMBarrierSynchronizesCTA(t *testing.T) {
	src := `
.kernel bar
.param .ptr A
  mov r0, %tid
  shl r1, r0, 3
  ld.global.u64 r2, [A + r1]
  bar.sync
  st.global.u64 [A + r1], r2
  exit
`
	k := kir.MustParse(src)
	kir.AnalyzeReadOnly(k)
	l := &kir.Launch{Kernel: k, GridDim: 1, CTAThreads: 128,
		Buffers: []kir.Binding{{Base: 1 << 20, Size: 4096}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 400) // long memory delay: barrier must actually wait
	r.sm.StartKernel(l, 0, 1)
	r.runToIdle(t, 100000)
	if r.stats.Instructions != int64(4*6) {
		t.Fatalf("instructions %d", r.stats.Instructions)
	}
}

func TestSMScoreboardBlocksDependentUse(t *testing.T) {
	// With a huge memory delay, the dependent fma cannot issue early:
	// the run time must exceed the delay.
	r := newRig(t, 5000)
	l := rigLaunch(t, 1, 1)
	r.sm.StartKernel(l, 0, 1)
	done := r.runToIdle(t, 100000)
	if done < 5000 {
		t.Fatalf("finished at %d despite 5000-cycle memory", done)
	}
}

func TestSMDebugState(t *testing.T) {
	r := newRig(t, 10)
	if s := r.sm.DebugState(); s == "" {
		t.Fatal("empty debug state")
	}
}

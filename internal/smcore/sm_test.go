package smcore

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
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
	drv     *driver.Driver
	vmsys   *vm.System
	pending []*sim.MemReq
	ready   []sim.Cycle
	delay   sim.Cycle
	sent    int
}

func newRig(t testing.TB, delay sim.Cycle) *testRig {
	t.Helper()
	return newRigWith(t, delay, func(*config.Config) {})
}

// newRigWith is newRig with the configuration adjusted by mut.
func newRigWith(t testing.TB, delay sim.Cycle, mut func(*config.Config)) *testRig {
	t.Helper()
	cfg := config.Baseline()
	cfg.WarpsPerSM = 16
	cfg.MaxCTAsPerSM = 4
	mut(&cfg)
	m := addrmap.New(&cfg)
	drv := driver.New(&cfg, m)
	st := &metrics.Stats{}
	vmsys := vm.NewSystem(&cfg, drv, st)
	r := &testRig{stats: st, drv: drv, vmsys: vmsys, delay: delay}
	r.sm = New(0, 0, &cfg, st, metrics.NewSharingHistogram())
	r.sm.VMRequest = vmsys.Request
	r.sm.PageLookup = func(vpn uint64, now sim.Cycle) (uint64, bool, bool) {
		ppn, busyUntil, ok := drv.Resolve(vpn, 0)
		if busyUntil > now {
			return 0, true, false
		}
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
	r.deliver(now)
}

// deliver hands the SM the replies that are due.
func (r *testRig) deliver(now sim.Cycle) {
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

func rigLaunch(t testing.TB, grid int, iters int64) *kir.Launch {
	t.Helper()
	k := kir.MustParse(rigKernel)
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

// TestWarpContextsAcrossLaunches: an SM sizes its warp contexts per launch
// and a slot takes one the first time it runs a warp of the launch. Here
// the first launch's three-warp CTAs leave two of the eight slots unused,
// so the second launch's one-warp CTAs reach slots that never ran a warp
// beside slots that did; it must run as it does on a fresh SM, no two live
// slots sharing a context.
func TestWarpContextsAcrossLaunches(t *testing.T) {
	eight := func(c *config.Config) { c.WarpsPerSM, c.MaxCTAsPerSM = 8, 8 }
	wide, narrow := rigLaunch(t, 4, 3), rigLaunch(t, 8, 3)
	wide.CTAThreads, narrow.CTAThreads = 3*kir.WarpSize, kir.WarpSize
	fresh := newRigWith(t, 10, eight)
	fresh.sm.StartKernel(narrow, 0, 8)
	fresh.runToIdle(t, 100000)
	r := newRigWith(t, 10, eight)
	r.sm.StartKernel(wide, 0, 4)
	r.runToIdle(t, 100000)
	before := r.stats.Instructions
	r.sm.StartKernel(narrow, 0, 8)
	r.runToIdle(t, 200000)
	if got, want := r.stats.Instructions-before, fresh.stats.Instructions; got != want {
		t.Fatalf("the second launch issued %d instructions, %d on a fresh SM", got, want)
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

// TestSMDebugState: the hang report's SM line says, per scheduler, what
// its warps are waiting for.
func TestSMDebugState(t *testing.T) {
	r := newRig(t, 1<<40) // memory never answers
	idle := "live=0 outstanding=0 lsu=0 send=0 ctaQ=0 firstPC=-1" +
		" sched0[ready=0 lsu-wait=0 timed=0 load-wait=0 barrier=0 drain=0]" +
		" sched1[ready=0 lsu-wait=0 timed=0 load-wait=0 barrier=0 drain=0]"
	if got := r.sm.DebugState(0); got != idle {
		t.Fatalf("idle SM:\n got %s\nwant %s", got, idle)
	}
	// 4 CTAs x 2 warps, one per scheduler: all ready at launch.
	r.sm.StartKernel(rigLaunch(t, 4, 2), 0, 4)
	if got, want := r.sm.DebugState(0), "sched0[ready=4 lsu-wait=0 timed=0 load-wait=0 barrier=0 drain=0]"; !strings.Contains(got, want) {
		t.Fatalf("at launch: %s\nwant it to contain %s", got, want)
	}
	// Three cycles in, scheduler 0's greedy warp waits out a multiply.
	for now := sim.Cycle(1); now <= 3; now++ {
		r.tick(now)
	}
	if got, want := r.sm.DebugState(3), "sched0[ready=3 lsu-wait=0 timed=1(min=5) load-wait=0"; !strings.Contains(got, want) {
		t.Fatalf("cycle 3: %s\nwant it to contain %s", got, want)
	}
	// With memory silent every warp ends up behind its first load, and
	// the SM sleeps until a reply: the line the watchdog prints.
	for now := sim.Cycle(4); now <= 50000; now++ {
		r.tick(now)
	}
	if w := r.sm.NextWake(50000); w != sim.Never {
		t.Fatalf("wake hint %d, want never", w)
	}
	want := "live=8 outstanding=16 lsu=0 send=0 ctaQ=0 firstPC=10" +
		" sched0[ready=0 lsu-wait=0 timed=0 load-wait=4 barrier=0 drain=0]" +
		" sched1[ready=0 lsu-wait=0 timed=0 load-wait=4 barrier=0 drain=0]"
	if got := r.sm.DebugState(50000); got != want {
		t.Fatalf("blocked SM:\n got %s\nwant %s", got, want)
	}
}

// --- The scan the ready set replaced, kept as the oracle -----------------
//
// Before the ready set, each scheduler re-derived every warp's readiness
// from its scoreboard every cycle: the greedy slot first, then its slots in
// age order until one could issue. scanOracle is that scan, read-only (it
// has no nextReady/sleepUntil caches to keep), with its own copy of the
// greedy slots, and it finds age order from warpSlot.age rather than from
// the scheduler's position table — so it shares none of the state it checks.
type scanOracle struct {
	greedy []int
}

func newScanOracle(s *SM) *scanOracle {
	o := &scanOracle{greedy: make([]int, len(s.sched))}
	for i := range o.greedy {
		o.greedy[i] = -1
	}
	return o
}

// scoreboardUntil is the cycle the operands of the warp's next instruction
// are ready (pendingForever while one waits on a load); ok is false for a
// warp that cannot issue whatever the scoreboard says.
func scoreboardUntil(ws *warpSlot) (until int64, in *kir.Instr, ok bool) {
	if !ws.valid || ws.w.Exited || ws.atBarrier {
		return 0, nil, false
	}
	in = ws.w.Current()
	if in == nil {
		return 0, nil, false
	}
	for need := in.NeedMask; need != 0; need &= need - 1 {
		if t := ws.regReadyAt[bits.TrailingZeros32(need)]; t > until {
			until = t
		}
	}
	return until, in, true
}

// issuable is the old SM.issuable: live, not at a barrier, operands ready
// and, for a memory op, room in the LSU.
func (o *scanOracle) issuable(s *SM, slot int, now sim.Cycle) bool {
	until, in, ok := scoreboardUntil(&s.warps[slot])
	if !ok || until > now {
		return false
	}
	return !(in.Op.IsMem() && s.lsu.Full())
}

// ageOrder returns scheduler sched's live slots, oldest first.
func ageOrder(s *SM, sched int) []int {
	var slots []int
	for slot := sched; slot < len(s.warps); slot += len(s.sched) {
		if s.warps[slot].valid {
			slots = append(slots, slot)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return s.warps[slots[i]].age < s.warps[slots[j]].age })
	return slots
}

// pick is the old SM.issue up to the point it executed: the warp scheduler
// sched issues at cycle now, or -1.
func (o *scanOracle) pick(s *SM, sched int, now sim.Cycle) int {
	if g := o.greedy[sched]; g >= 0 && o.issuable(s, g, now) {
		return g
	}
	for _, slot := range ageOrder(s, sched) {
		if o.issuable(s, slot, now) {
			o.greedy[sched] = slot
			return slot
		}
	}
	return -1
}

// checkSets asserts that every scheduler's position table and ready, mem and
// timed words are what the scan derives from the warps' state at cycle now.
func (o *scanOracle) checkSets(t *testing.T, s *SM, now sim.Cycle) {
	t.Helper()
	for i := range s.sched {
		sc := &s.sched[i]
		order := ageOrder(s, i)
		if sc.n != len(order) {
			t.Fatalf("cycle %d sched %d: %d positions, %d live warps", now, i, sc.n, len(order))
		}
		var ready, mem, timed uint64
		minWake := sim.Never
		for pos, slot := range order {
			ws := &s.warps[slot]
			if int(sc.slot[pos]) != slot || int(ws.pos) != pos {
				t.Fatalf("cycle %d sched %d: position %d holds slot %d (warp says pos %d), age order wants slot %d",
					now, i, pos, sc.slot[pos], ws.pos, slot)
			}
			until, in, ok := scoreboardUntil(ws)
			if !ok {
				continue
			}
			bit := uint64(1) << uint(pos)
			if in.Op.IsMem() {
				mem |= bit
			}
			switch {
			case until <= now:
				ready |= bit
			case until < pendingForever:
				timed |= bit
				if ws.wakeAt != until {
					t.Fatalf("cycle %d sched %d slot %d: wakeAt %d, scoreboard says %d", now, i, slot, ws.wakeAt, until)
				}
				if until < minWake {
					minWake = until
				}
			}
		}
		if sc.ready != ready || sc.mem != mem || sc.timed != timed || sc.minWake != minWake {
			t.Fatalf("cycle %d sched %d: sets ready=%#x mem=%#x timed=%#x minWake=%d, scan derives ready=%#x mem=%#x timed=%#x minWake=%d",
				now, i, sc.ready, sc.mem, sc.timed, sc.minWake, ready, mem, timed, minWake)
		}
	}
}

// tickChecked is testRig.tick with SM.Tick opened up so each scheduler's
// pick can be held against the oracle's before it executes; it returns how
// many warps issued. TestReadySetMatchesScanOracle runs a second rig on the
// real Tick in lock-step to show the two are the same machine.
func (r *testRig) tickChecked(t *testing.T, o *scanOracle, now sim.Cycle) (issued int) {
	t.Helper()
	s := r.sm
	r.vmsys.Tick(now)
	s.drainSendQueue(now)
	s.tickLSU(now)
	for i := range s.sched {
		want := o.pick(s, i, now)
		got := s.pick(&s.sched[i], now)
		if got != want {
			t.Fatalf("cycle %d sched %d: picked slot %d, the scan picks %d (greedy %d, lsu %d/16)",
				now, i, got, want, s.sched[i].greedy, s.lsu.Len())
		}
		if got >= 0 {
			s.execWarp(got, now)
			issued++
		}
	}
	r.deliver(now)
	o.checkSets(t, s, now)
	return issued
}

const oracleBarrierKernel = `
.kernel obar
.param .ptr A
.param .ptr B
.param .u64 iters
  mov r0, %tid
  mad r1, %ctaid, %ntid, r0
  mul r1, r1, iters
  mov r4, 0
loop:
  add r5, r1, r4
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  bar.sync
  fma r8, r7
  st.global.u64 [B + r6], r8
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  exit
`

const oracleAtomicKernel = `
.kernel oatom
.param .ptr A
.param .ptr B
.param .u64 iters
  mov r0, %tid
  mad r1, %ctaid, %ntid, r0
  mul r1, r1, iters
  mov r4, 0
loop:
  add r5, r1, r4
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  hash r8, r7
  rem r8, r8, 512
  shl r8, r8, 3
  atom.global.add.u64 r9, [B + r8], r7
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  exit
`

// Warps run different trip counts (so they retire out of age order), odd
// lanes skip the first load, no lane executes the second (an empty access
// never enters the LSU), and the two loads that do run are independent —
// the second waits for an LSU entry, not for the first — and revisit lines
// a sibling warp fetched, so some complete as L1 hits.
const oracleDivergentKernel = `
.kernel odiv
.param .ptr A
.param .ptr B
.param .u64 iters
  mov r0, %tid
  mad r1, %ctaid, %ntid, r0
  mov r2, %warpid
  rem r2, r2, 3
  add r2, r2, iters
  mov r3, %laneid
  rem r3, r3, 2
  setp.eq p1, r3, 0
  mov r4, 0
loop:
  mad r5, r4, 64, r0
  shl r6, r5, 3
  @p1 ld.global.u64 r7, [A + r6]
  setp.ge p1, %laneid, 32
  @p1 ld.global.u64 r10, [A + r6]
  setp.eq p1, r3, 0
  shl r9, r1, 3
  ld.global.u64 r11, [A + r9]
  add r8, r7, r11
  st.global.u64 [B + r9], r8
  add r4, r4, 1
  setp.lt p0, r4, r2
  @p0 bra loop
  exit
`

func oracleLaunch(t *testing.T, src string, grid, ctaThreads int, iters int64) *kir.Launch {
	t.Helper()
	k := kir.MustParse(src)
	size := uint64(grid*ctaThreads)*uint64(iters+3)*8 + 4096
	l := &kir.Launch{Kernel: k, GridDim: grid, CTAThreads: ctaThreads,
		Scalars: []int64{iters},
		Buffers: []kir.Binding{{Base: 1 << 20, Size: size}, {Base: 1 << 24, Size: size}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// mapBuffers maps every page of the launch's buffers, as the prewarm of a
// full run leaves them: translations then miss the TLB but never fault.
func (r *testRig) mapBuffers(l *kir.Launch) {
	for _, b := range l.Buffers {
		for vpn := b.Base >> r.sm.pageShift; vpn <= (b.Base+b.Size-1)>>r.sm.pageShift; vpn++ {
			r.drv.Allocate(vpn, 0, true)
		}
	}
}

// TestReadySetMatchesScanOracle holds the event-driven ready set to the
// scan it replaced on every cycle of streaming, barrier, atomic and
// divergent kernels: (a) each scheduler picks the warp the scan picks,
// (b) each scheduler's words are what the scan derives per slot, and
// (c) the wake hint is never later than the next cycle a warp issues.
// At 200 and 2000 cycles the 16-entry MSHR file keeps the LSU full, which
// is the state the schedulers used to rescan every cycle. The cold run
// takes its first-touch page faults, which park accesses in the LSU for
// tens of thousands of cycles; the others start with their pages mapped.
func TestReadySetMatchesScanOracle(t *testing.T) {
	kernels := []struct {
		name       string
		src        string
		ctaThreads int
		grid       int
		cold       bool
	}{
		{"streaming", rigKernel, 64, 40, false},
		{"streaming-cold", rigKernel, 64, 12, true},
		{"barrier", oracleBarrierKernel, 128, 24, false},
		{"atomic", oracleAtomicKernel, 64, 40, false},
		{"divergent", oracleDivergentKernel, 128, 24, false},
	}
	for _, k := range kernels {
		for _, delay := range []sim.Cycle{8, 200, 2000} {
			t.Run(fmt.Sprintf("%s/%d", k.name, delay), func(t *testing.T) {
				if testing.Short() && delay == 2000 {
					t.Skip("the 2000-cycle rows are two thirds of the run time; 200 already fills the LSU")
				}
				mut := func(c *config.Config) {
					c.WarpsPerSM, c.MaxCTAsPerSM = 64, 32
					c.L1MSHRs = 16
					c.L1Latency = 3 // an L1 hit is a timed wake too
				}
				grid := k.grid
				l := oracleLaunch(t, k.src, grid, k.ctaThreads, 3)
				r, ref := newRigWith(t, delay, mut), newRigWith(t, delay, mut)
				if !k.cold {
					r.mapBuffers(l)
					ref.mapBuffers(l)
				}
				r.sm.StartKernel(l, 0, grid)
				ref.sm.StartKernel(l, 0, grid)
				o := newScanOracle(r.sm)
				o.checkSets(t, r.sm, 0)

				var seen struct{ lsuWait, timed, loadWait, barrier, skipped, outOfOrder int }
				prevAges := make([][]int64, len(r.sm.sched)) // per scheduler, last cycle's live warps
				quietUntil := sim.Cycle(0)                   // no warp may issue before this cycle
				for now := sim.Cycle(1); ; now++ {
					if now > 2000000 {
						t.Fatal("kernel did not drain")
					}
					issued := r.tickChecked(t, o, now)
					ref.tick(now)
					if got, want := r.sm.StateSig(), ref.sm.StateSig(); got != want {
						t.Fatalf("cycle %d: the opened-up tick and SM.Tick diverged", now)
					}
					if issued > 0 && now < quietUntil {
						t.Fatalf("cycle %d: a warp issued, but the wake hint had claimed nothing before cycle %d", now, quietUntil)
					}
					// The hint holds "given no new input"; the rig's inputs
					// are page-walk completions and memory replies.
					hint := min(r.sm.NextWake(now), r.vmsys.NextWake(now))
					for _, at := range r.ready {
						hint = min(hint, at)
					}
					if hint > now+1 {
						seen.skipped++
					}
					quietUntil = max(quietUntil, hint)

					for i := range r.sm.sched {
						sc := &r.sm.sched[i]
						if r.sm.lsu.Full() && sc.ready&sc.mem != 0 {
							seen.lsuWait++
						}
						// A warp retired while an older one stayed.
						var ages []int64
						for _, slot := range ageOrder(r.sm, i) {
							ages = append(ages, r.sm.warps[slot].age)
						}
						for _, age := range prevAges[i] {
							if !slices.Contains(ages, age) && slices.Contains(ages, prevAges[i][0]) {
								seen.outOfOrder++
							}
						}
						prevAges[i] = ages
						if sc.timed != 0 {
							seen.timed++
						}
					}
					for i := range r.sm.warps {
						ws := &r.sm.warps[i]
						if until, _, ok := scoreboardUntil(ws); ok && until == pendingForever {
							seen.loadWait++
						}
						if ws.valid && ws.atBarrier {
							seen.barrier++
						}
					}
					if r.sm.Idle() && len(r.pending) == 0 {
						break
					}
				}
				if r.stats.Instructions == 0 || r.stats.Instructions != ref.stats.Instructions {
					t.Fatalf("instructions %d, reference %d", r.stats.Instructions, ref.stats.Instructions)
				}
				// The run must have visited the states the sets distinguish.
				if seen.timed == 0 || seen.loadWait == 0 {
					t.Errorf("never saw a timed (%d) or load-blocked (%d) warp", seen.timed, seen.loadWait)
				}
				if delay >= 200 && seen.lsuWait == 0 {
					t.Error("the LSU never filled under ready memory warps")
				}
				if delay >= 200 && seen.skipped == 0 {
					t.Error("the wake hint never claimed an idle cycle")
				}
				if k.name == "barrier" && seen.barrier == 0 {
					t.Error("no warp ever waited at the barrier")
				}
				if k.name == "divergent" && (seen.outOfOrder == 0 || r.stats.L1Hits == 0) {
					t.Errorf("%d warps retired ahead of an older one, %d L1 hits: want both", seen.outOfOrder, r.stats.L1Hits)
				}
			})
		}
	}
}

// TestGreedySurvivesSlotRecycle pins the greedy quirk: greedy names a slot,
// not a warp. With every warp always ready (independent moves, no memory),
// scheduler 0 stays on slot 0 through one warp after another — each exit
// recycles the slot at once, the next CTA's warp lands in it as the
// youngest on the SM, and it still issues ahead of the older ready warps
// in slots 1..3, until the CTA queue is empty.
func TestGreedySurvivesSlotRecycle(t *testing.T) {
	k := kir.MustParse(`
.kernel moves
  mov r1, 1
  mov r2, 2
  mov r3, 3
  exit
`)
	const grid, perWarp = 10, 4
	l := &kir.Launch{Kernel: k, GridDim: grid, CTAThreads: 32}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRigWith(t, 10, func(c *config.Config) { c.SchedulersPerSM = 1 })
	r.sm.StartKernel(l, 0, grid) // MaxCTAsPerSM 4: CTAs 0..3 resident in slots 0..3
	o := newScanOracle(r.sm)
	inheritedWhileOlderReady := 0
	for now := sim.Cycle(1); now <= (grid-3)*perWarp; now++ {
		s := r.sm
		if got := s.pick(&s.sched[0], now); got != 0 {
			t.Fatalf("cycle %d: scheduler left the greedy slot for slot %d", now, got)
		}
		if s.warps[0].age > s.warps[1].age && o.issuable(s, 1, now) {
			inheritedWhileOlderReady++
		}
		s.execWarp(0, now)
		o.greedy[0] = 0
		o.checkSets(t, s, now)
	}
	if want := (grid - 4) * perWarp; inheritedWhileOlderReady != want {
		t.Fatalf("a recycled greedy slot issued ahead of an older ready warp %d times, want %d", inheritedWhileOlderReady, want)
	}
	if r.sm.next != r.sm.end || r.sm.liveWarps != 3 {
		t.Fatalf("after the greedy run: %d CTAs queued, %d warps live; want 0 and 3", r.sm.end-r.sm.next, r.sm.liveWarps)
	}
	r.runToIdle(t, 1000)
	if r.stats.Instructions != grid*perWarp {
		t.Fatalf("instructions %d want %d", r.stats.Instructions, grid*perWarp)
	}
}

// TestRemovePosKeepsBitOrderAgeOrder retires warps out of age order —
// from the middle, the front, the last position and bit 63 — and checks
// the masks, the slot table, the wake times and each warp's position
// against a model that keeps one record per warp in a slice.
func TestRemovePosKeepsBitOrderAgeOrder(t *testing.T) {
	r := newRigWith(t, 10, func(c *config.Config) { c.WarpsPerSM, c.SchedulersPerSM = 64, 1 })
	s, sc := r.sm, &r.sm.sched[0]
	type rec struct {
		slot              int
		ready, mem, timed bool
		wakeAt            sim.Cycle
	}
	var model []rec
	sc.n = 64
	for pos := 0; pos < 64; pos++ {
		slot := 63 - pos // slots in some order other than position order
		m := rec{slot: slot, ready: pos%3 == 0, mem: pos%2 == 0, timed: pos%3 == 1, wakeAt: sim.Cycle(1000 + pos)}
		model = append(model, m)
		s.warps[slot] = warpSlot{valid: true, pos: uint8(pos), wakeAt: m.wakeAt}
		sc.slot[pos] = int16(slot)
		for _, w := range []struct {
			word *uint64
			set  bool
		}{{&sc.ready, m.ready}, {&sc.mem, m.mem}, {&sc.timed, m.timed}} {
			if w.set {
				*w.word |= 1 << uint(pos)
			}
		}
	}
	for _, pos := range []int{63, 17, 0, 60, 30, 30, 1, 0} {
		s.removePos(sc, pos)
		model = append(model[:pos], model[pos+1:]...)
		if sc.n != len(model) {
			t.Fatalf("after removing position %d: n=%d want %d", pos, sc.n, len(model))
		}
		var ready, mem, timed uint64
		for p, m := range model {
			bit := uint64(1) << uint(p)
			if m.ready {
				ready |= bit
			}
			if m.mem {
				mem |= bit
			}
			if m.timed {
				timed |= bit
			}
			if int(sc.slot[p]) != m.slot || s.warps[m.slot].wakeAt != m.wakeAt || int(s.warps[m.slot].pos) != p {
				t.Fatalf("after removing position %d: position %d holds slot %d (warp pos %d wakeAt %d), want slot %d wakeAt %d",
					pos, p, sc.slot[p], s.warps[m.slot].pos, s.warps[m.slot].wakeAt, m.slot, m.wakeAt)
			}
		}
		if sc.ready != ready || sc.mem != mem || sc.timed != timed {
			t.Fatalf("after removing position %d: ready=%#x mem=%#x timed=%#x want %#x %#x %#x",
				pos, sc.ready, sc.mem, sc.timed, ready, mem, timed)
		}
	}
}

// Every door work can come through must clear the sleep deadline
// (DESIGN.md §9 "Sleep deadlines"): an SM the core has stopped ticking
// and that a door does not wake never runs again, and the run hangs —
// for minutes, at the test timeout. One row per door, so a deleted reset
// fails here, by name, at once.
func TestDoorsWake(t *testing.T) {
	// asleep ticks the SM (and, with walks, the VM system) until its
	// deadline is beyond the next cycle and ok holds.
	asleep := func(t *testing.T, r *testRig, walks bool, ok func() bool) sim.Cycle {
		for now := sim.Cycle(1); now < 100_000; now++ { // a first-touch fault is 28 k cycles
			if walks {
				r.vmsys.Tick(now)
			}
			r.sm.Tick(now)
			if r.sm.Sleep().At() > now+1 && ok() {
				return now
			}
		}
		t.Fatal("SM never went to sleep in the wanted state")
		return 0
	}
	// translating returns the LSU access parked on a page walk, if any.
	translating := func(s *SM) *memAccess {
		for i := 0; i < s.lsu.Len(); i++ {
			if acc := s.lsu.At(i); acc.nextLine < acc.n && acc.lines[acc.nextLine].state == lineTranslating {
				return acc
			}
		}
		return nil
	}
	for _, tc := range []struct {
		door string
		run  func(t *testing.T, r *testRig) sim.Cycle
	}{
		{"StartKernel", func(t *testing.T, r *testRig) sim.Cycle {
			now := asleep(t, r, false, func() bool { return true }) // no kernel: asleep for ever
			r.sm.StartKernel(rigLaunch(t, 1, 1), 0, 1)
			return now
		}},
		{"AcceptReply", func(t *testing.T, r *testRig) sim.Cycle {
			// Every warp waits on a load the rig never delivers.
			r.sm.StartKernel(rigLaunch(t, 1, 1), 0, 1)
			now := asleep(t, r, true, func() bool { return len(r.pending) > 0 })
			r.sm.AcceptReply(r.pending[0], now)
			return now
		}},
		{"finishWalk", func(t *testing.T, r *testRig) sim.Cycle {
			// The VM system is never ticked: every warp waits on a walk.
			r.sm.StartKernel(rigLaunch(t, 1, 1), 0, 1)
			now := asleep(t, r, false, func() bool { return translating(r.sm) != nil })
			translating(r.sm).walked()
			return now
		}},
	} {
		t.Run(tc.door, func(t *testing.T) {
			r := newRig(t, 1<<40)
			now := tc.run(t, r)
			if d := r.sm.Sleep().At(); d > now {
				t.Fatalf("%s left the SM asleep until %d at cycle %d", tc.door, d, now)
			}
		})
	}
	// The same three doors end the LSU's park (DESIGN.md §9 "Parks"): a
	// two-entry MSHR file and a silent memory park it for ever, with a page
	// walk still in flight for the last door to finish.
	for _, tc := range []struct {
		door string
		open func(t *testing.T, r *testRig, now sim.Cycle)
	}{
		{"StartKernel", func(t *testing.T, r *testRig, _ sim.Cycle) { r.sm.StartKernel(rigLaunch(t, 4, 4), 4, 4) }},
		{"AcceptReply", func(_ *testing.T, r *testRig, now sim.Cycle) { r.sm.AcceptReply(r.pending[0], now) }},
		{"finishWalk", func(_ *testing.T, r *testRig, _ sim.Cycle) { translating(r.sm).walked() }},
	} {
		t.Run(tc.door+"/lsu-park", func(t *testing.T) {
			r := newRigWith(t, 1<<40, func(c *config.Config) { c.L1MSHRs = 2 })
			r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
			now := sim.Cycle(1)
			for ; r.sm.lsuPark.Until != sim.Never || translating(r.sm) == nil; now++ {
				if now > 100_000 {
					t.Fatal("the LSU never parked on the MSHR file with a walk in flight")
				}
				r.tick(now)
			}
			tc.open(t, r, now)
			if r.sm.lsuPark.Until != 0 {
				t.Fatalf("%s left the LSU parked until %d at cycle %d", tc.door, r.sm.lsuPark.Until, now)
			}
		})
	}
}

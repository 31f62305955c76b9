package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// The hybrid engine must be cycle-exact when timers wake it: MDR epochs
// and migration scans (the topologies are TestAdvanceMatchesStep's rows).
func TestEnginesCycleExact(t *testing.T) {
	checkMatchesNaive(t, timedRows("nuba-mdr", "nuba-mig"), EngineHybrid)
}

// Wake-up ordering ties: when an MDR epoch boundary, a migration scan and
// a mem-clock boundary all land on the same cycle, the hybrid engine must
// process them in the same intra-step order as the reference, and the
// sanitizer must find every hint sound.
func TestEnginesWakeTies(t *testing.T) {
	checkMatchesNaive(t, timedRows("nuba-timer-ties"), EngineHybrid, EngineSanitize)
}

// A component that re-activates exactly at a fast-forward target: with
// the epoch equal to the batch size every MDR wake-up coincides with the
// batch boundary the fast-forward aims at, exercising the w == target
// path of advance.
func TestEngineReactivationAtFastForwardTarget(t *testing.T) {
	checkMatchesNaive(t, timedRows("nuba-epoch-is-batch"), EngineHybrid, EngineSanitize)
}

// errAfterCtx reports Canceled starting from the nth Err poll — a
// deterministic cancellation point, independent of wall-clock, that lands
// in the middle of a run (and, for the hybrid engine, between
// fast-forward jumps).
type errAfterCtx struct {
	polls int64
	after int64
}

func (c *errAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfterCtx) Done() <-chan struct{}       { return nil }
func (c *errAfterCtx) Value(any) any               { return nil }
func (c *errAfterCtx) Err() error {
	if atomic.AddInt64(&c.polls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestEnginesCancelMidRun(t *testing.T) {
	run := func(e Engine) (int64, error) {
		g := MustNew(tinyConfig(config.NUBA))
		g.SetEngine(e)
		l := tinyLaunch(t, g, 32, 4)
		err := g.RunProgramContext(&errAfterCtx{after: 10}, []*kir.Launch{l})
		return g.Stats().Cycles, err
	}
	nCycles, nErr := run(EngineNaive)
	hCycles, hErr := run(EngineHybrid)
	if nErr == nil || hErr == nil {
		t.Fatalf("cancellation not observed: naive=%v hybrid=%v", nErr, hErr)
	}
	if nCycles != hCycles {
		t.Errorf("canceled runs diverge: naive stopped at %d, hybrid at %d", nCycles, hCycles)
	}
	if nCycles == 0 {
		t.Error("cancellation fired before any batch ran")
	}
}

// The MaxCycles limit must clamp inside the cycle batch: a runaway run
// stops at exactly the configured cycle — not rounded up to the next
// 64-cycle batch boundary — and both engines agree on the clamped state.
func TestMaxCyclesClampsWithinBatch(t *testing.T) {
	run := func(e Engine, maxCycles int64) (*metrics.Stats, error) {
		cfg := tinyConfig(config.NUBA)
		cfg.MaxCycles = maxCycles
		g := MustNew(cfg)
		g.SetEngine(e)
		l := tinyLaunch(t, g, 32, 4)
		err := g.RunProgram([]*kir.Launch{l})
		return g.Stats(), err
	}
	// 101 is deliberately far off the batch lattice; the kernel needs
	// hundreds of cycles, so the limit always fires mid-run.
	const limit = 101
	for _, e := range []Engine{EngineNaive, EngineHybrid} {
		st, err := run(e, limit)
		if err == nil {
			t.Fatalf("%v: runaway run did not report MaxCycles", e)
		}
		if st.Cycles != limit {
			t.Errorf("%v: stopped at cycle %d, want exactly %d", e, st.Cycles, limit)
		}
	}
	naive, nErr := run(EngineNaive, limit)
	hybrid, hErr := run(EngineHybrid, limit)
	if fmt.Sprint(nErr) != fmt.Sprint(hErr) {
		t.Errorf("clamped errors diverge: naive %v, hybrid %v", nErr, hErr)
	}
	if a, b := fmt.Sprintf("%+v", *naive), fmt.Sprintf("%+v", *hybrid); a != b {
		t.Errorf("clamped stats diverge\nnaive:  %s\nhybrid: %s", a, b)
	}
}

// The quiet()-vs-wake consistency invariant (checked under -race in CI):
// a quiet GPU must report no component wake-up, and a non-quiet GPU must
// always have a pending wake-up — otherwise the hybrid engine would
// sleep forever on live work.
func TestQuietVsWakeInvariant(t *testing.T) {
	g := MustNew(tinyConfig(config.NUBA))
	l := tinyLaunch(t, g, 16, 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	g.launchSeq++
	g.prewarm(l)
	g.assignCTAs(l)
	for batch := 0; ; batch++ {
		if batch > 1_000_000 {
			t.Fatal("runaway: kernel did not drain")
		}
		quiet := g.quiet()
		wake := g.componentWake()
		if quiet && wake != sim.Never {
			t.Fatalf("batch %d (cycle %d): quiet GPU reports component wake at %d", batch, g.cycle, wake)
		}
		if !quiet && g.nextWake() == sim.Never {
			t.Fatalf("batch %d (cycle %d): live components but no pending wake-up (lost wake)", batch, g.cycle)
		}
		if quiet {
			break
		}
		if _, err := g.advance(g.cycle + batchCycles); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().Instructions == 0 {
		t.Fatal("invariant walk executed no instructions")
	}
}

// hopKernel is two warps chasing cold loads: each iteration reads one
// line no other iteration touches, so between two loads the only thing
// in the machine is one request or one reply in flight.
const hopKernel = `
.kernel hop
.param .ptr A
.param .u64 k
  mov r1, %ctaid
  mov r4, 0
  mov r5, 0
loop:
  shl r6, r4, 1
  add r6, r6, r1
  shl r6, r6, 7
  ld.global.u64 r7, [A + r6]
  add r5, r5, r7
  add r4, r4, 1
  setp.lt p0, r4, k
  @p0 bra loop
  shl r8, r1, 3
  st.global.u64 [A + r8], r5
  exit
`

// A message's flight through a crossbar is skipped, not stepped, and
// skipping it changes nothing: a two-CTA remote-load kernel ends on the
// same cycle with the same statistics under all three engines, on NUBA
// (round-robin pages, so three loads in four cross the slice-to-slice
// fabric) and on the memory-side UBA (every miss crosses both). Each engine
// is a subtest of its own, so a hybrid hang does not keep the sanitizer's
// verdict on the same run from being heard. With the fabric otherwise idle,
// a link send that forgets to lower the fabric deadline fails the sanitize
// leg as an unsound wake hint; on the busy sanitize rows of
// TestEnginesByteIdenticalFullRuns the next fabric phase repairs the
// deadline before it shows.
func TestEnginesSkipNoCFlight(t *testing.T) {
	const iters = 256
	for _, arch := range []config.Arch{config.NUBA, config.UBAMem} {
		cfg := tinyConfig(arch)
		cfg.Placement = config.RoundRobin
		var want string
		for _, e := range []Engine{EngineNaive, EngineHybrid, EngineSanitize} {
			t.Run(fmt.Sprintf("%v/%v", arch, e), func(t *testing.T) {
				g := MustNew(cfg)
				g.SetEngine(e)
				k := kir.MustParse(hopKernel)
				size := uint64(2 * iters * sim.LineSize)
				l := &kir.Launch{Kernel: k, GridDim: 2, CTAThreads: 32, Scalars: []int64{iters},
					Buffers: []kir.Binding{{Base: g.NewBuffer(size), Size: size}}}
				if err := g.RunProgram([]*kir.Launch{l}); err != nil {
					t.Fatal(err)
				}
				st := g.Stats()
				if st.RemoteAccesses < iters {
					t.Fatalf("%d remote accesses: the kernel does not cross the NoC", st.RemoteAccesses)
				}
				if got := fmt.Sprintf("%+v", *st); e == EngineNaive {
					want = got
				} else if want != "" && got != want {
					t.Errorf("diverges from naive\nnaive: %s\n%v: %s", want, e, got)
				}
			})
		}
	}

	// The hint itself: a quiet GPU whose only pending work is one reply on
	// a reply crossbar wakes at that reply's arrival on its middle link,
	// then at its arrival on its egress link — not on the next cycle.
	g := MustNew(tinyConfig(config.NUBA))
	if !g.quiet() || g.componentWake() != sim.Never {
		t.Fatal("a new GPU is not quiet")
	}
	width, stage := g.cfg.NoCPortBytes(), g.cfg.NoCLatency/2
	flits := func(w int) sim.Cycle { return sim.Cycle((sim.DataBytes + w - 1) / w) }
	reply := noc.Msg{Req: &sim.MemReq{Kind: sim.Load, SM: 0}, Dst: 0, Bytes: sim.DataBytes, Reply: true}
	if !g.replyXbars[0].Inject(1, g.cycle, reply) {
		t.Fatal("inject rejected")
	}
	if w := g.nextWake(); w != g.cycle+1 {
		t.Fatalf("reply at the input port: nextWake = %d, want %d", w, g.cycle+1)
	}
	g.step()
	atMid := g.cycle + flits(noc.MidSpeedup*width) + stage
	if w := g.nextWake(); w != atMid || w <= g.cycle+1 {
		t.Fatalf("reply on a middle link at cycle %d: nextWake = %d, want its arrival %d", g.cycle, w, atMid)
	}
	if _, err := g.advance(atMid); err != nil {
		t.Fatal(err)
	}
	atOut := atMid + flits(width) + stage
	if w := g.nextWake(); g.cycle != atMid || w != atOut {
		t.Fatalf("reply on an egress link at cycle %d: nextWake = %d, want its arrival %d", g.cycle, w, atOut)
	}
}

// The fabric deadline is a lower bound on the wake of every occupied
// fabric carrier after every step — a kernel and its boundary flush,
// stepped cycle by cycle under hybrid on all five topologies — and the
// deadline skips the fabric phase on some of those cycles and runs it on
// others.
func TestFabricDeadlineIsALowerBound(t *testing.T) {
	for _, tc := range topologies() {
		g := MustNew(tc.cfg)
		l := tinyLaunch(t, g, 16, 2)
		g.prewarm(l)
		g.assignCTAs(l)
		for _, phase := range []func(){func() {}, g.kernelBoundaryFlush} {
			phase()
			for !g.quiet() {
				if g.cycle > 1_000_000 {
					t.Fatalf("%s: runaway: the kernel did not drain", tc.name)
				}
				g.step()
				if d, least := g.fabric.At(), g.fabric.Least(); d > least {
					t.Fatalf("%s: cycle %d: fabric deadline %d above an occupied carrier's wake %d", tc.name, g.cycle, d, least)
				}
			}
		}
		if es := g.EngineStats(); es.FabricSkipped == 0 || es.FabricSkipped == es.Stepped {
			t.Errorf("%s: the fabric phase was skipped on %d of %d stepped cycles", tc.name, es.FabricSkipped, es.Stepped)
		}
	}
}

// BenchmarkStepEmptyFabric is one stepped cycle of a quiet scale-0.25
// NUBA GPU: what every component costs when nothing is anywhere — the
// state bench/ has no row for.
func BenchmarkStepEmptyFabric(b *testing.B) {
	g := MustNew(config.Baseline().Scale(0.25).WithArch(config.NUBA))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.step()
	}
	if g.es.FabricSkipped != g.es.Stepped {
		b.Fatalf("the quiet GPU ran its fabric phase on %d of %d cycles", g.es.Stepped-g.es.FabricSkipped, g.es.Stepped)
	}
}

// benchWindow times b.N stepped cycles of the same window: start builds a
// GPU ready to run (fast-forwarded past its cold start) and returns its
// step, and every window steps a fresh one is started with the timer
// stopped. So ns/op is the mean over the window's first cycles however far
// b.N reaches — a faster binary that runs more iterations times the same
// cycles, not a later phase of the kernel.
func benchWindow(b *testing.B, window int, start func() (step func())) {
	var step func()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			b.StopTimer()
			step = start()
			b.StartTimer()
		}
		step()
	}
}

// running returns a benchWindow start: a GPU of cfg mid-run on benchmark
// abbr, stepped warm cycles past its cold start, whose step reassigns the
// launch when the GPU drains.
func running(b *testing.B, cfg config.Config, abbr string, warm int) func() func() {
	bm, err := workload.ByAbbr(abbr)
	if err != nil {
		b.Fatal(err)
	}
	return func() func() {
		g := MustNew(cfg)
		launches, err := bm.Build(g.NewBuffer)
		if err != nil {
			b.Fatal(err)
		}
		l := launches[0]
		g.prewarm(l)
		g.assignCTAs(l)
		for range warm {
			g.step()
		}
		return func() {
			if g.quiet() {
				g.assignCTAs(l)
			}
			g.step()
		}
	}
}

// BenchmarkMoveFabric is one stepped cycle of a scale-0.25 GPU mid-run on
// BH, on the fabrics whose links bench/ has no workload for: NUBA's
// point-to-point sets, the SM-side UBA's inter-half links and a four-module
// MCM's inter-module links (all three drained by moveFabric; the whole
// step is timed, so compare a fabric with itself across commits).
func BenchmarkMoveFabric(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"nuba", config.Baseline().Scale(0.25).WithArch(config.NUBA)},
		{"uba-sm", config.Baseline().Scale(0.25).WithArch(config.UBASMSide)},
		{"mcm-nuba", config.MCM(config.NUBA).Scale(0.25)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchWindow(b, 10_000, running(b, tc.cfg, "BH", 20_000))
		})
	}
}

// BenchmarkStepCongested is one stepped cycle of a scale-0.25 NUBA GPU
// mid-run on Stringmatch (bench/'s atomic_remote kernel): 82 % of its
// atomics cross the crossbar, so on most cycles most senders — SMs, request
// links, crossbar stages, slice outboxes — hold a head their receiver
// refuses. What parking those heads (DESIGN.md §9 "Parks") saves, at the
// granularity of step; compare across commits.
func BenchmarkStepCongested(b *testing.B) {
	benchWindow(b, 10_000, running(b, config.Baseline().Scale(0.25).WithArch(config.NUBA), "SM", 20_000))
}

// BenchmarkStepOnePartitionBusy is one stepped cycle of the shape NUBA's
// premise predicts and bench/ has no row for: one SM streaming through
// its partition's slice and channel on a scale-0.25 NUBA GPU, the other
// seven partitions asleep.
func BenchmarkStepOnePartitionBusy(b *testing.B) {
	benchWindow(b, 10_000, func() func() {
		g := MustNew(config.Baseline().Scale(0.25).WithArch(config.NUBA))
		l := tinyLaunch(b, g, 1, 64)
		g.prewarm(l)
		return func() {
			if g.sms[0].Idle() {
				g.assignCTAs(l)
			}
			g.step()
		}
	})
}

// BenchmarkComponentWake is the hint scan alone over a quiet scale-0.25
// NUBA GPU: every SM, slice and channel asleep, every NUBA link empty.
func BenchmarkComponentWake(b *testing.B) {
	g := MustNew(config.Baseline().Scale(0.25).WithArch(config.NUBA))
	g.step() // a first tick puts every component to sleep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.componentWake() != sim.Never {
			b.Fatal("the quiet GPU has a wake-up")
		}
	}
}

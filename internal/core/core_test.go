package core

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// tinyConfig returns a small 8-SM system for fast tests.
func tinyConfig(arch config.Arch) config.Config {
	cfg := config.Baseline().Scale(0.125).WithArch(arch)
	cfg.MaxCycles = 5_000_000
	return cfg
}

const tinyStream = `
.kernel tiny
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

func tinyLaunch(t testing.TB, g *GPU, grid int, iters int64) *kir.Launch {
	t.Helper()
	k := kir.MustParse(tinyStream)
	size := uint64(grid) * 256 * uint64(iters) * 8
	l := &kir.Launch{Kernel: k, GridDim: grid, CTAThreads: 256,
		Scalars: []int64{iters},
		Buffers: []kir.Binding{{Base: g.NewBuffer(size), Size: size}, {Base: g.NewBuffer(size), Size: size}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAllArchitecturesRunTinyKernel(t *testing.T) {
	for _, arch := range []config.Arch{config.UBAMem, config.UBASMSide, config.NUBA} {
		g := MustNew(tinyConfig(arch))
		l := tinyLaunch(t, g, 32, 4)
		if err := g.RunProgram([]*kir.Launch{l}); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		st := g.Stats()
		if st.Cycles == 0 || st.Instructions == 0 || st.Replies == 0 {
			t.Fatalf("%v: empty run %+v", arch, st)
		}
		// All issued loads must be answered: grid*256 threads * 4 iters,
		// 16 elements per line, minus L1 hits and merges.
		if st.L1Misses == 0 {
			t.Fatalf("%v: no L1 misses in a streaming kernel", arch)
		}
		if st.LocalAccesses+st.RemoteAccesses == 0 {
			t.Fatalf("%v: no service classification", arch)
		}
	}
}

func TestInstructionCountMatchesFunctionalExecution(t *testing.T) {
	// The timed pipeline must execute exactly the same instruction stream
	// as a pure functional interpretation.
	g := MustNew(tinyConfig(config.UBAMem))
	l := tinyLaunch(t, g, 16, 4)

	var want int64
	for cta := 0; cta < l.GridDim; cta++ {
		for wi := 0; wi < l.WarpsPerCTA(); wi++ {
			w := kir.NewWarp(l, cta, wi)
			var mem kir.MemInfo
			for !w.Exited {
				w.Exec(&mem)
				want++
			}
		}
	}
	if err := g.RunProgram([]*kir.Launch{l}); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Instructions; got != want {
		t.Fatalf("timed run executed %d instructions, functional %d", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		g := MustNew(tinyConfig(config.NUBA))
		l := tinyLaunch(t, g, 32, 4)
		if err := g.RunProgram([]*kir.Launch{l}); err != nil {
			t.Fatal(err)
		}
		return g.Stats().Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

func TestColdStartPaysFaults(t *testing.T) {
	cfg := tinyConfig(config.UBAMem)
	cfg.ColdStart = true
	cfg.PageFaultLatency = 2000
	g := MustNew(cfg)
	l := tinyLaunch(t, g, 16, 2)
	if err := g.RunProgram([]*kir.Launch{l}); err != nil {
		t.Fatal(err)
	}
	if g.Stats().PageFaults == 0 {
		t.Fatal("cold start produced no faults")
	}

	warm := MustNew(tinyConfig(config.UBAMem))
	lw := tinyLaunch(t, warm, 16, 2)
	if err := warm.RunProgram([]*kir.Launch{lw}); err != nil {
		t.Fatal(err)
	}
	if warm.Stats().PageFaults != 0 {
		t.Fatalf("prewarmed run faulted %d times", warm.Stats().PageFaults)
	}
	if g.Stats().Cycles <= warm.Stats().Cycles {
		t.Fatal("cold start should be slower than prewarmed")
	}
}

func TestNUBALocalityUnderLAB(t *testing.T) {
	g := MustNew(tinyConfig(config.NUBA))
	l := tinyLaunch(t, g, 64, 4)
	if err := g.RunProgram([]*kir.Launch{l}); err != nil {
		t.Fatal(err)
	}
	if lf := g.Stats().LocalFraction(); lf < 0.6 {
		t.Fatalf("low-sharing stream only %.2f local under LAB", lf)
	}
}

func TestMultiKernelFlushesLLC(t *testing.T) {
	g := MustNew(tinyConfig(config.UBAMem))
	l := tinyLaunch(t, g, 16, 2)
	if err := g.RunProgram([]*kir.Launch{l, l}); err != nil {
		t.Fatal(err)
	}
	// Stores dirty the LLC; the inter-kernel flush must write them back.
	if g.Stats().DRAMWrites == 0 {
		t.Fatal("no writebacks after kernel flush")
	}
	for _, sl := range g.slices {
		if sl.Tags().Occupancy() != 0 {
			t.Fatal("LLC not flushed at final kernel boundary")
		}
	}
}

func TestMCMConfigurationRuns(t *testing.T) {
	cfg := config.MCM(config.NUBA).Scale(0.25) // 32 SMs over 4 modules
	cfg.MaxCycles = 10_000_000
	g := MustNew(cfg)
	l := tinyLaunch(t, g, 64, 2)
	if err := g.RunProgram([]*kir.Launch{l}); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Cycles == 0 {
		t.Fatal("MCM run empty")
	}
}

func TestMigrationPolicyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short")
	}
	cfg := config.NUBABaseline().Scale(0.25)
	cfg.Placement = config.Migration
	cfg.MigrationInterval = 10000
	cfg.MigrationThreshold = 8
	cfg.MaxCycles = 40_000_000
	g := MustNew(cfg)
	b, err := workload.ByAbbr("SGEMM")
	if err != nil {
		t.Fatal(err)
	}
	launches, err := b.Build(g.NewBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunProgram(launches[:1]); err != nil {
		t.Fatal(err)
	}
	// Shared panels have remote-dominant accessors: migrations happen.
	if g.Stats().PageMigrations == 0 {
		t.Log("warning: no migrations triggered (acceptable but unusual)")
	}
}

func TestPageReplicationPolicyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short")
	}
	cfg := config.NUBABaseline().Scale(0.25)
	cfg.Placement = config.PageReplication
	cfg.MigrationThreshold = 8
	cfg.MaxCycles = 40_000_000
	g := MustNew(cfg)
	b, err := workload.ByAbbr("SGEMM")
	if err != nil {
		t.Fatal(err)
	}
	launches, err := b.Build(g.NewBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunProgram(launches[:1]); err != nil {
		t.Fatal(err)
	}
	if g.Stats().PageReplicas == 0 {
		t.Fatal("page replication never triggered on a shared-panel GEMM")
	}
}

func TestMDRControllerWiring(t *testing.T) {
	if MustNew(tinyConfig(config.NUBA)).MDRController() == nil {
		t.Fatal("NUBA+MDR has no controller")
	}
	cfg := tinyConfig(config.NUBA)
	cfg.Replication = config.NoRep
	if MustNew(cfg).MDRController() != nil {
		t.Fatal("No-Rep config has a controller")
	}
	if MustNew(tinyConfig(config.UBAMem)).MDRController() != nil {
		t.Fatal("UBA config has a controller")
	}
}

func TestNewBufferPageAligned(t *testing.T) {
	g := MustNew(tinyConfig(config.UBAMem))
	a := g.NewBuffer(100)
	b := g.NewBuffer(5000)
	if a%4096 != 0 || b%4096 != 0 {
		t.Fatal("buffers not page aligned")
	}
	if b <= a || b-a < 4096+100 {
		t.Fatal("buffers overlap or too close")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Baseline()
	cfg.NumSMs = 63 // not divisible by 32 channels
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestReplicationImprovesSharedReadBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short")
	}
	// The headline mechanism: on a shared-panel GEMM, NUBA+MDR must beat
	// NUBA without replication.
	run := func(rep config.ReplicationPolicy) int64 {
		cfg := config.NUBABaseline().Scale(0.5)
		cfg.Replication = rep
		cfg.MaxCycles = 40_000_000
		g := MustNew(cfg)
		b, err := workload.ByAbbr("SGEMM")
		if err != nil {
			t.Fatal(err)
		}
		launches, err := b.Build(g.NewBuffer)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RunProgram(launches); err != nil {
			t.Fatal(err)
		}
		return g.Stats().Cycles
	}
	noRep := run(config.NoRep)
	mdr := run(config.MDR)
	if float64(mdr) > 0.95*float64(noRep) {
		t.Fatalf("MDR (%d cycles) did not improve on No-Rep (%d cycles)", mdr, noRep)
	}
}

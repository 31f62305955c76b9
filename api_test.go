package nuba

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestSmokeAllArchitectures runs one benchmark end-to-end on every
// architecture at reduced scale, checking completion and sane statistics.
func TestSmokeAllArchitectures(t *testing.T) {
	bench, err := BenchmarkByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{Baseline(), SMSideConfig(), NUBAConfig()} {
		cfg := cfg.Scale(0.25)
		res, err := Run(context.Background(), cfg, bench)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		st := res.Stats
		t.Logf("%s: cycles=%d ipc=%.3f", cfg.Name(), st.Cycles, st.IPC())
		if st.Cycles <= 0 || st.Instructions <= 0 || st.Replies == 0 {
			t.Fatalf("%s: empty run: %+v", cfg.Name(), st)
		}
		// A direct caller keeps the machine (only the batch runner's
		// memo cache drops it).
		if res.System == nil || res.System.HitMaxCycles() {
			t.Fatalf("%s: Run must return the system it finished on, got %v", cfg.Name(), res.System)
		}
	}
}

func TestConfigConstructors(t *testing.T) {
	for _, cfg := range []Config{Baseline(), SMSideConfig(), NUBAConfig(),
		MCMConfig(UBAMem), MCMConfig(NUBA)} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
	}
	if Baseline().Arch != UBAMem || NUBAConfig().Arch != NUBA || SMSideConfig().Arch != UBASMSide {
		t.Fatal("constructor arch mismatch")
	}
	if NUBAConfig().Placement != LAB || NUBAConfig().Replication != MDR {
		t.Fatal("NUBA defaults wrong")
	}
}

func TestConfigDerivations(t *testing.T) {
	c := Baseline()
	if c.Scale(0.5).NumSMs != 32 || c.Scale(2).NumChannels != 64 {
		t.Fatal("Scale wrong")
	}
	narrow, wide := c.WithNoC(700), c.WithNoC(5600)
	if narrow.NoCPortBytes() != 8 || wide.NoCPortBytes() != 64 {
		t.Fatal("NoC width derivation wrong")
	}
	p := c.WithPartition(4)
	if p.NumLLCSlices != 128 || p.NumLLCSlices*p.LLCSliceBytes != c.NumLLCSlices*c.LLCSliceBytes {
		t.Fatal("WithPartition must preserve capacity")
	}
	l := c.WithLLCCapacity(2)
	if l.LLCSliceBytes != 2*c.LLCSliceBytes {
		t.Fatal("WithLLCCapacity wrong")
	}
}

func TestSuiteAccessors(t *testing.T) {
	if len(Suite()) != 29 || len(LowSharing())+len(HighSharing()) != 29 {
		t.Fatal("suite split wrong")
	}
	if _, err := BenchmarkByAbbr("nope"); err == nil {
		t.Fatal("bad abbr accepted")
	}
}

func TestParseKernelAPI(t *testing.T) {
	k, err := ParseKernel(`
.kernel t
.param .ptr A
  mov r0, %tid
  shl r1, r0, 3
  ld.global.u64 r2, [A + r1]
  exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Analyzed || !k.Buffers[0].ReadOnly {
		t.Fatal("ParseKernel must run the read-only analysis")
	}
	if _, err := ParseKernel("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRunLaunchesAPI(t *testing.T) {
	cfg := NUBAConfig().Scale(0.125)
	res, err := Run(context.Background(), cfg, Benchmark{Abbr: "custom", Build: func(alloc Alloc) ([]*Launch, error) {
		k, err := ParseKernel(`
.kernel mini
.param .ptr A
.param .ptr B
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, %ntid, r0
  shl r3, r2, 3
  ld.global.u64 r4, [A + r3]
  st.global.u64 [B + r3], r4
  exit
`)
		if err != nil {
			return nil, err
		}
		size := uint64(16 * 256 * 8)
		return []*Launch{{
			Kernel: k, GridDim: 16, CTAThreads: 256,
			Buffers: []Binding{
				{Base: alloc(size), Size: size},
				{Base: alloc(size), Size: size},
			},
		}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles == 0 || res.Stats.TotalEnergyNJ() <= 0 {
		t.Fatal("empty result")
	}
	if res.Sharing.Pages() == 0 {
		t.Fatal("no sharing data")
	}
}

// TestRunContextCancellation: a canceled context must abort the
// simulation instead of running it to completion.
func TestRunContextCancellation(t *testing.T) {
	bench, err := BenchmarkByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, NUBAConfig().Scale(0.125), bench); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunRefusesUnknownEngine: an engine value that is none of the three
// does not run, and the error names it.
func TestRunRefusesUnknownEngine(t *testing.T) {
	bench, err := BenchmarkByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NUBAConfig().Scale(0.125), bench, WithEngine(Engine(3)))
	if res != nil || err == nil || err.Error() != "nuba: unknown engine Engine(3)" {
		t.Fatalf("Engine(3): got %v, %v; want nuba: unknown engine Engine(3)", res, err)
	}
}

// TestRunDigestIsTheCycleLoops: the digest of a Result's Stats is the one
// the cycle loop left, though Run has since filled the energy fields, so
// a digest read from a Result compares with testdata/suite_digests.txt.
func TestRunDigestIsTheCycleLoops(t *testing.T) {
	bench, err := BenchmarkByAbbr("LEU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NUBAConfig().Scale(0.125)
	res, err := Run(context.Background(), cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := run(cfg, bench, EngineHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if loop.outcome != "drained" || res.Stats.TotalEnergyNJ() <= 0 {
		t.Fatalf("want a drained run with its energy filled in: %s, %g nJ", loop.outcome, res.Stats.TotalEnergyNJ())
	}
	if got := res.Stats.Digest(); got != loop.digest {
		t.Errorf("Run's digest %016x, the cycle loop's %016x", got, loop.digest)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := &Result{Stats: &Stats{Cycles: 50}}
	b := &Result{Stats: &Stats{Cycles: 100}}
	if Speedup(a, b) != 2 {
		t.Fatal("speedup wrong")
	}
	if Speedup(&Result{Stats: &Stats{}}, b) != 0 {
		t.Fatal("zero-cycle guard missing")
	}
}

func TestConfigNames(t *testing.T) {
	cfg := NUBAConfig()
	n := cfg.Name()
	if !strings.Contains(n, "NUBA") || !strings.Contains(n, "LAB") || !strings.Contains(n, "MDR") {
		t.Fatalf("name %q", n)
	}
}

package nuba

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/core"
)

// inject is the WithArm hook arming one fault (no seeded pick: every
// fault here names its target).
func inject(f core.Fault) func(*System) error {
	return func(g *System) error { return g.Inject(0, f) }
}

// TestWatchdogSuiteNoFalsePositives is the watchdog's false-positive
// proof over the whole Table 2 suite. Every whole-suite test runs
// guarded, but at cappedConfig's own window — 224,000 cycles — the guard
// cannot reach a verdict inside the 256 Ki-cycle cap. The suite is
// prewarmed and never pays a page fault, so zeroing the fault penalty
// moves no simulated cycle and only pulls the window down to its 64 Ki
// floor: at a quarter of the production window, every capped run
// (runCapped, engines_test.go) must end exactly as the reference does —
// same drained/capped outcome (any *HangError fails the helper
// immediately), same counters, same trace bytes. The watchdog reads only
// pure state signatures, so byte-identity is the contract, not just a
// nice-to-have.
func TestWatchdogSuiteNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark, plus the shared reference")
	}
	tight := cappedConfig()
	tight.PageFaultLatency = 0
	for _, b := range Suite() {
		ref := cappedReference(t, b)
		got := runCapped(t, tight, b, EngineHybrid)
		if ref.outcome != got.outcome {
			t.Errorf("%s: outcomes diverge\nreference:    %s\ntight window: %s", b.Abbr, ref.outcome, got.outcome)
		}
		if ref.report != got.report {
			t.Errorf("%s: reports diverge at the tight window\nreference:    %s\ntight window: %s",
				b.Abbr, ref.report, got.report)
		}
		if !bytes.Equal(ref.series, got.series) {
			t.Errorf("%s: NDJSON epoch traces diverge at the tight window", b.Abbr)
		}
		if len(ref.series) == 0 {
			t.Errorf("%s: empty trace — comparison is vacuous", b.Abbr)
		}
	}
}

// TestRunRecoversInjectedPanic: a panic inside the simulator surfaces
// from Run as a one-line *PanicError carrying the stack, instead of
// killing the process.
func TestRunRecoversInjectedPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	b, err := BenchmarkByAbbr("MVT")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), NUBAConfig().Scale(0.125), b,
		WithArm(inject(core.Fault{Kind: core.PanicAt, At: 2000})))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("recovered panic carries no usable stack")
	}
	if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "panic") {
		t.Fatalf("Error() must be a single line naming the panic: %q", msg)
	}
}

// TestWatchdogCyclesOption: with no option set, Run ends each hanging
// fault class as a *HangError with a populated report, in the first
// quarter of the cycles the cap would let it spin.
func TestWatchdogCyclesOption(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	b, err := BenchmarkByAbbr("MVT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NUBAConfig().Scale(0.125)
	cfg.MaxCycles = 4 << 20
	for _, f := range []core.Fault{
		{Kind: core.WedgeSM, Target: 0, At: 2000},
		{Kind: core.StallLLC, Target: 0, At: 2000},
		{Kind: core.StallNoC, Target: 0, At: 1000},
		{Kind: core.DropDRAMReply, Target: 0, After: 3},
	} {
		_, err = Run(context.Background(), cfg, b, WithArm(inject(f)))
		var he *HangError
		if !errors.As(err, &he) {
			t.Fatalf("%v: want *HangError, got %v", f.Kind, err)
		}
		if len(he.Report.Stuck) == 0 || he.Report.Reason == "" {
			t.Errorf("%v: hang report incomplete: %+v", f.Kind, he.Report)
		}
		if he.Report.Cycle > 1<<20 {
			t.Errorf("%v: hang declared only at cycle %d", f.Kind, he.Report.Cycle)
		}
	}
}

// TestWatchdogCatchesWedgeOnNonZeroPartition: fault targets are global
// component indices, and the watchdog's progress signature and hang
// report walk the whole component table — so wedging the machine's LAST
// SM (highest partition) must be armed, simulated, detected and named
// exactly as a wedge on SM 0 is.
func TestWatchdogCatchesWedgeOnNonZeroPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	b, err := BenchmarkByAbbr("MVT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NUBAConfig().Scale(0.125)
	cfg.MaxCycles = 4 << 20
	lastSM := cfg.NumSMs - 1
	if part := cfg.PartitionOfSM(lastSM); part == 0 {
		t.Fatalf("test needs a multi-partition config; SM %d is on partition 0", lastSM)
	}
	want := fmt.Sprintf("SM %d", lastSM)
	_, err = Run(context.Background(), cfg, b,
		WithArm(inject(core.Fault{Kind: core.WedgeSM, Target: lastSM, At: 2000})))
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	found := false
	for _, c := range he.Report.Stuck {
		if c.Name == want {
			found = true
		}
	}
	if !found {
		t.Errorf("hang report does not name the wedged %s: %+v", want, he.Report.Stuck)
	}
}

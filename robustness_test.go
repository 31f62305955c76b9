package nuba

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba/internal/core"
)

// inject is the WithArm hook arming one fault (no seeded pick: every
// fault here names its target).
func inject(f core.Fault) func(*System) error {
	return func(g *System) error { return g.Inject(0, f) }
}

// TestWatchdogSuiteNoFalsePositives is the watchdog's false-positive
// proof over the whole Table 2 suite: with the watchdog armed, every
// capped benchmark run (runCapped, engines_test.go) must end exactly as
// the unwatched reference run does — same drained/capped outcome (any
// *HangError fails the helper immediately), same counters, same trace
// bytes. The watchdog reads
// only pure state signatures, so byte-identity is the contract, not
// just a nice-to-have.
func TestWatchdogSuiteNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark, plus the shared reference")
	}
	for _, b := range Suite() {
		off := cappedReference(t, b)
		on := runCapped(t, b, EngineHybrid, 32*1024)
		if off.outcome != on.outcome {
			t.Errorf("%s: outcomes diverge\nwatchdog off: %s\nwatchdog on:  %s", b.Abbr, off.outcome, on.outcome)
		}
		if off.report != on.report {
			t.Errorf("%s: reports diverge with the watchdog armed\noff: %s\non:  %s",
				b.Abbr, off.report, on.report)
		}
		if !bytes.Equal(off.series, on.series) {
			t.Errorf("%s: NDJSON epoch traces diverge with the watchdog armed", b.Abbr)
		}
		if len(off.series) == 0 {
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

// TestWatchdogCyclesOption: the public WithWatchdog option catches an
// injected stall as a *HangError with a populated report.
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
	_, err = Run(context.Background(), cfg, b,
		WithWatchdog(WatchdogOptions{NoProgressCycles: 16384}),
		WithArm(inject(core.Fault{Kind: core.StallNoC, Target: 0, At: 1000})))
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	if len(he.Report.Stuck) == 0 || he.Report.Reason == "" {
		t.Fatalf("hang report incomplete: %+v", he.Report)
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
		WithWatchdog(WatchdogOptions{NoProgressCycles: 16384}),
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

// TestWatchdogWallClockBudget: the wall-clock half of WatchdogOptions
// converts a runaway run into a *HangError with a component snapshot,
// even with the cycle-based watchdog off.
func TestWatchdogWallClockBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	b, err := BenchmarkByAbbr("MVT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NUBAConfig().Scale(0.125)
	cfg.MaxCycles = 1 << 40 // effectively uncapped: only the budget can stop it
	start := time.Now()
	_, err = Run(context.Background(), cfg, b,
		WithWatchdog(WatchdogOptions{WallClock: 300 * time.Millisecond}),
		WithArm(inject(core.Fault{Kind: core.StallNoC, Target: 0, At: 1000})))
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	if he.Report.Reason != "wall-clock-budget" {
		t.Fatalf("want wall-clock-budget report, got %q", he.Report.Reason)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("budget enforcement took %s", elapsed)
	}
}

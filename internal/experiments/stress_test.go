package experiments

// The seeded fault-injection stress matrix (`make stress`): every
// core.FaultKind is injected into a short run and must be
// caught by the layer docs/ROBUSTNESS.md assigns it to — the
// forward-progress watchdog (hangs and deadlocks), the sanitize engine
// (unsound hints), or the experiment pool (panics) — while the
// live-but-degraded faults must NOT trip anything (the false-positive
// guard). Everything is seeded, so a failure here reproduces exactly.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// stressConfig is the matrix's small, bounded system: big enough to
// exercise every component class, capped so even an uncaught hang ends
// the test quickly.
func stressConfig() nuba.Config {
	cfg := nuba.NUBAConfig().Scale(0.125)
	cfg.MaxCycles = 4 << 20
	return cfg
}

const stressSeed = 0x9ba7_57e5 // arbitrary, fixed: reruns hit identical targets

// inject is the nuba.WithArm hook arming faults with the matrix's seed.
func inject(faults ...core.Fault) func(*nuba.System) error {
	return func(g *nuba.System) error { return g.Inject(stressSeed, faults...) }
}

// armPlan is the pool tests' Options.Arm: faults per {config, benchmark}
// job, where an empty config name matches the benchmark under every
// configuration (an exact entry wins).
type armPlan map[[2]string][]core.Fault

func (p armPlan) arm(cfgName, bench string) func(*nuba.System) error {
	faults, ok := p[[2]string{cfgName, bench}]
	if !ok {
		if faults, ok = p[[2]string{"", bench}]; !ok {
			return nil
		}
	}
	return inject(faults...)
}

func stressBench(t *testing.T, abbr string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStressMatrix runs one fault class per row — no option set beyond
// the row's engine — and asserts the documented detection outcome.
func TestStressMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed stress matrix")
	}
	b := stressBench(t, "MVT")
	cases := []struct {
		name   string
		faults []core.Fault
		engine nuba.Engine
		// want is the required outcome: "clean" (no error), "hang"
		// (*nuba.HangError), "sanitize" (hint-soundness diagnostic) or
		// "panic" (*nuba.PanicError).
		want string
	}{
		{"control-clean", nil, nuba.EngineHybrid, "clean"},
		{"wedge-sm", []core.Fault{{Kind: core.WedgeSM, Target: -1, At: 2000}}, nuba.EngineHybrid, "hang"},
		{"stall-llc", []core.Fault{{Kind: core.StallLLC, Target: -1, At: 2000}}, nuba.EngineHybrid, "hang"},
		{"stall-noc", []core.Fault{{Kind: core.StallNoC, Target: -1, At: 2000}}, nuba.EngineHybrid, "hang"},
		{"drop-dram-reply", []core.Fault{{Kind: core.DropDRAMReply, Target: -1, After: 3}}, nuba.EngineHybrid, "hang"},
		{"slow-llc", []core.Fault{{Kind: core.SlowLLC, Target: -1, At: 2000, Period: 64}}, nuba.EngineHybrid, "clean"},
		{"hint-bias", []core.Fault{{Kind: core.HintBias, Bias: 64}}, nuba.EngineSanitize, "sanitize"},
		{"panic", []core.Fault{{Kind: core.PanicAt, At: 2000}}, nuba.EngineHybrid, "panic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() error {
				_, err := nuba.Run(context.Background(), stressConfig(), b,
					nuba.WithEngine(tc.engine),
					nuba.WithArm(inject(tc.faults...)))
				return err
			}
			err := run()
			switch tc.want {
			case "clean":
				if err != nil {
					t.Fatalf("injected %s must not trip anything: %v", tc.name, err)
				}
			case "hang":
				var he *nuba.HangError
				if !errors.As(err, &he) {
					t.Fatalf("injected %s not caught by the watchdog: %v", tc.name, err)
				}
				if len(he.Report.Stuck) == 0 {
					t.Fatalf("hang report names no stuck components:\n%s", he.Report.String())
				}
				// Seeded determinism: the rerun must fail identically,
				// same victim, same cycle, same report.
				if err2 := run(); err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("rerun diverged:\nfirst:  %v\nsecond: %v", err, err2)
				}
			case "sanitize":
				if err == nil || !strings.Contains(err.Error(), "unsound wake hint") {
					t.Fatalf("injected %s not caught by the sanitize engine: %v", tc.name, err)
				}
			case "panic":
				var pe *nuba.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("injected %s not recovered as a PanicError: %v", tc.name, err)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("recovered panic carries no stack")
				}
			}
		})
	}
}

// TestStressPoolIsolatesFailures is the acceptance scenario: a sweep
// containing one panicking job and one hanging job of each class — no
// option set — still renders a report for every healthy benchmark,
// records every failure with its cause, and marks the report partial.
func TestStressPoolIsolatesFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed stress matrix")
	}
	plan := armPlan{
		{"", "BP"}:    {{Kind: core.PanicAt, At: 2000}},
		{"", "SGEMM"}: {{Kind: core.WedgeSM, Target: 0, At: 2000}},
		{"", "LEU"}:   {{Kind: core.StallLLC, Target: 0, At: 2000}},
		{"", "BH"}:    {{Kind: core.StallNoC, Target: 0, At: 2000}},
		{"", "AN"}:    {{Kind: core.DropDRAMReply, Target: 0, After: 3}},
	}

	var benches []workload.Benchmark
	for _, abbr := range []string{"BP", "SGEMM", "LEU", "BH", "AN", "MVT"} {
		benches = append(benches, stressBench(t, abbr))
	}
	r := NewRunner(Options{
		Scale: 0.125, Benchmarks: benches, Jobs: 2, Arm: plan.arm,
	})
	e, err := ByName("fig3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute(context.Background(), e)
	if err != nil {
		t.Fatalf("a partial sweep must still render: %v", err)
	}
	if !strings.Contains(rep.Text, "MVT") {
		t.Fatalf("healthy benchmark missing from the partial report:\n%s", rep.Text)
	}
	if !strings.Contains(rep.Text, "FAILED JOBS") {
		t.Fatalf("partial report carries no failures section:\n%s", rep.Text)
	}
	if len(rep.Failures) != len(plan) {
		t.Fatalf("want %d job failures, got %d: %+v", len(plan), len(rep.Failures), rep.Failures)
	}
	byBench := map[string]JobFailure{}
	for _, f := range rep.Failures {
		byBench[f.Bench] = f
	}
	if f := byBench["BP"]; !f.Panic || len(f.Stack) == 0 || !strings.Contains(f.Err, "panic") || f.Hang != "" {
		t.Errorf("BP failure must be a recovered panic with stack and no hang report: %+v", f)
	}
	// The hang keeps its one-line error in the failures section and
	// carries the full report, memory side included, for the CLI's stderr.
	if f := byBench["SGEMM"]; f.Panic || !strings.Contains(f.Err, "watchdog") || strings.Contains(f.Err, "\n") ||
		!strings.HasPrefix(f.Hang, "hang detected at cycle") || !strings.Contains(f.Hang, "\n  SM 0 ") {
		t.Errorf("SGEMM failure must be a watchdog hang with its report: %+v", f)
	}
	for _, abbr := range []string{"LEU", "BH", "AN"} {
		if f := byBench[abbr]; !strings.Contains(f.Err, "watchdog") || f.Hang == "" {
			t.Errorf("%s failure must be a watchdog hang with its report: %+v", abbr, f)
		}
	}
}

// TestStressFailureStaysInItsExperiment: a job that fails on a
// configuration only fig11 uses must not cost fig12 — run next on the
// same Runner — that benchmark.
func TestStressFailureStaysInItsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed stress matrix")
	}
	rr := nuba.NUBAConfig().Scale(0.125)
	rr.Placement = nuba.RoundRobin
	plan := armPlan{{rr.Name(), "BP"}: {{Kind: core.PanicAt, At: 2000}}}
	r := NewRunner(Options{
		Scale: 0.125, Benchmarks: []workload.Benchmark{stressBench(t, "BP"), stressBench(t, "MVT")},
		Arm: plan.arm,
	})
	reports := map[string]*Report{}
	for _, name := range []string{"fig11", "fig12"} {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if reports[name], err = r.Execute(context.Background(), e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if fs := reports["fig11"].Failures; len(fs) != 1 || fs[0].Bench != "BP" || fs[0].Config != rr.Name() {
		t.Fatalf("fig11 must report the one injected failure: %+v", fs)
	}
	tables, _, _ := strings.Cut(reports["fig11"].Text, "\nFAILED JOBS")
	if strings.Contains(tables, "BP") || !strings.Contains(tables, "MVT") {
		t.Errorf("fig11's tables must drop BP and keep MVT:\n%s", reports["fig11"].Text)
	}
	if rep := reports["fig12"]; len(rep.Failures) != 0 || !strings.Contains(rep.Text, "BP") {
		t.Errorf("fig12 uses none of fig11's failed job, yet: failures=%+v\n%s", rep.Failures, rep.Text)
	}
}

// TestStressCancelUnderFault: a caller's deadline ends a run that is
// live. One slice ticking every 4096th cycle makes progress inside every
// watchdog window and would take hours to finish, so only cancellation
// can end the run — and must, promptly, on all three engines. Runs under
// -race via the experiments race target.
func TestStressCancelUnderFault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed stress matrix")
	}
	b := stressBench(t, "MVT")
	for _, engine := range []nuba.Engine{nuba.EngineHybrid, nuba.EngineNaive, nuba.EngineSanitize} {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			start := time.Now()
			cfg := stressConfig()
			cfg.MaxCycles = 1 << 40 // effectively uncapped: only the deadline can stop it
			_, err := nuba.Run(ctx, cfg, b,
				nuba.WithEngine(engine),
				nuba.WithArm(inject(core.Fault{Kind: core.SlowLLC, Target: 0, At: 1000, Period: 4096})))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want ctx deadline error, got %v", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("cancellation took %s; the engine kept spinning", elapsed)
			}
		})
	}
}

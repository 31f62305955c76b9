package nuba

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/trace"
)

// The tentpole guarantee of the idle-skip engine: the hybrid engine is
// byte-identical to the serial naive reference. Two tests split the
// guarantee so the whole thing fits a `go test ./...` budget:
//
//   - TestEnginesByteIdenticalAcrossSuite covers every benchmark in the
//     Table 2 suite under a hard cycle cap. Cycle-exact engines must
//     agree on the complete machine state at every cycle, so agreement
//     over the first 256 Ki cycles of all 29 workloads — stats, streamed
//     epoch traces and the capped-or-drained outcome itself — is checked
//     without paying for the multi-hundred-M-cycle tails some workloads
//     grow at the test's 0.125 scale (NW alone exceeds the 80 M-cycle
//     safety limit there).
//   - TestEnginesByteIdenticalFullRuns runs a cheap subset to natural
//     completion through the public Run path, under naive and under
//     sanitize, covering the kernel-boundary flush, the final drain and
//     the finished NDJSON + Chrome trace streams that a capped run never
//     reaches.
//
// Any hint that is not conservative shows up as a diverging counter, a
// diverging trace byte, or one engine draining where the other hits the
// cap.

// cappedCapture is everything observable from one capped engine run.
type cappedCapture struct {
	report  string
	series  []byte
	outcome string // "drained" or the run error text
	live    int64  // memory requests not yet retired when the run ended
	digest  uint64 // Stats.Digest of the run
}

// cappedConfig is the system the whole-suite identity tests share
// (engines here and in TestSanitizeSuite, the watchdog in
// robustness_test.go — at a tighter window), so they can share one
// reference run too.
func cappedConfig() Config {
	cfg := NUBAConfig().Scale(0.125)
	// A multiple of both the 64-cycle batch and MemClockDiv, far enough
	// to reach steady state on every workload yet bounded in wall time.
	cfg.MaxCycles = 256 * 1024
	return cfg
}

// runCapped executes b on cfg (cappedConfig, or a variant of it) under
// engine e, tolerating (and recording) the MaxCycles error a capped run
// ends in — and nothing else: a sanitizer diagnostic or a *HangError
// fails the test. It drives internal/core directly because the public
// Run returns no Result for a capped run, while the comparison needs the
// stats snapshot either way.
func runCapped(t *testing.T, cfg Config, b Benchmark, e Engine) cappedCapture {
	t.Helper()
	g, err := core.New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", b.Abbr, err)
	}
	g.SetEngine(e)
	var series bytes.Buffer
	tr := trace.New(trace.Options{Series: &series, EpochCycles: 10_000}, cfg.CoreClockGHz)
	tr.Begin(trace.Meta{Bench: b.Abbr, Config: cfg.Name(), Partitions: cfg.NumPartitions()})
	g.AttachTracer(tr)
	launches, err := b.Build(g.NewBuffer)
	if err != nil {
		t.Fatalf("%s: build: %v", b.Abbr, err)
	}
	outcome := "drained"
	if err := g.RunProgramContext(context.Background(), launches); err != nil {
		if !strings.Contains(err.Error(), "exceeded MaxCycles") {
			t.Fatalf("%s: %v engine: unexpected error: %v", b.Abbr, e, err)
		}
		outcome = err.Error()
	}
	st := g.Stats()
	return cappedCapture{
		// The full counter struct plus the rendered deep-dive table is
		// the "report": every byte the CLIs derive their output from.
		report:  fmt.Sprintf("%+v\n%s", *st, DetailTable(st)),
		series:  series.Bytes(),
		outcome: outcome,
		live:    g.LiveRequests(),
		digest:  st.Digest(),
	}
}

// cappedRefs memoises cappedReference per benchmark for the process.
// Tests in this package run on one goroutine, so a plain map will do.
var cappedRefs = map[string]cappedCapture{}

// cappedReference is what every whole-suite test compares its variant
// against: b on cappedConfig under the default engine. It is simulated
// on first use, so any one of those tests still runs alone under -run.
func cappedReference(t *testing.T, b Benchmark) cappedCapture {
	t.Helper()
	ref, ok := cappedRefs[b.Abbr]
	if !ok {
		ref = runCapped(t, cappedConfig(), b, EngineHybrid)
		cappedRefs[b.Abbr] = ref
	}
	return ref
}

// TestSuiteDigestsGolden pins what the simulator says: one Stats digest
// per Table 2 benchmark from the capped reference runs the other
// whole-suite tests already share, against testdata/suite_digests.txt. A
// PR that moves a simulated cycle anywhere in the suite fails here naming
// the benchmarks; one that means to regenerates the file and shows the
// moved rows as its diff:
//
//	REGEN=1 go test -run TestSuiteDigestsGolden .
func TestSuiteDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs the shared reference of every benchmark")
	}
	const golden = "testdata/suite_digests.txt"
	var got strings.Builder
	for _, b := range Suite() {
		fmt.Fprintf(&got, "%-8s %016x\n", b.Abbr, cappedReference(t, b).digest)
	}
	if os.Getenv("REGEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the suite %d: regenerate it (REGEN=1)", golden, len(wantLines), len(gotLines))
	}
	for i, w := range wantLines {
		if gotLines[i] != w {
			t.Errorf("simulated statistics moved:\n got  %s\n want %s", gotLines[i], w)
		}
	}
}

func TestEnginesByteIdenticalAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark, plus the shared reference")
	}
	var drained, capped int
	for _, b := range Suite() {
		naive := runCapped(t, cappedConfig(), b, EngineNaive)
		hybrid := cappedReference(t, b)
		if naive.outcome != hybrid.outcome {
			t.Errorf("%s: outcomes diverge\nnaive:  %s\nhybrid: %s", b.Abbr, naive.outcome, hybrid.outcome)
		}
		if naive.report != hybrid.report {
			t.Errorf("%s: reports diverge between engines\nnaive:  %s\nhybrid: %s",
				b.Abbr, naive.report, hybrid.report)
		}
		if !bytes.Equal(naive.series, hybrid.series) {
			t.Errorf("%s: NDJSON epoch traces diverge between engines", b.Abbr)
		}
		if len(naive.series) == 0 {
			t.Errorf("%s: empty trace — comparison is vacuous", b.Abbr)
		}
		if naive.outcome == "drained" {
			drained++
			// Request conservation: a drained machine has retired every
			// request it created (a double release panics in the run).
			if naive.live != 0 || hybrid.live != 0 {
				t.Errorf("%s: requests never retired: naive %d, hybrid %d", b.Abbr, naive.live, hybrid.live)
			}
		} else {
			capped++
		}
	}
	// The suite must exercise both endings: full drains (flush + final
	// quiescence) and cap hits (clamped batch, error path).
	if drained == 0 || capped == 0 {
		t.Errorf("unbalanced coverage: %d drained, %d capped — adjust MaxCycles", drained, capped)
	}
}

// TestSanitizeSuite is the wake-hint-contract proof over the suite:
// every Table 2 benchmark runs under EngineSanitize with the same cap as
// TestEnginesByteIdenticalAcrossSuite, so every idle window the hint
// scan claims across the whole suite is re-scanned, stepped
// cycle-by-cycle and cross-checked against per-component state
// signatures. A single unsound or impure hint fails the run with a
// cycle/component diagnostic (runCapped tolerates only the MaxCycles
// cap), and the clean runs must stay byte-identical to the hybrid engine
// they are vouching for.
func TestSanitizeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark, plus the shared reference")
	}
	for _, b := range Suite() {
		san := runCapped(t, cappedConfig(), b, EngineSanitize)
		hybrid := cappedReference(t, b)
		if san.outcome != hybrid.outcome {
			t.Errorf("%s: outcomes diverge\nsanitize: %s\nhybrid:   %s", b.Abbr, san.outcome, hybrid.outcome)
		}
		if san.report != hybrid.report {
			t.Errorf("%s: reports diverge between engines\nsanitize: %s\nhybrid:   %s",
				b.Abbr, san.report, hybrid.report)
		}
		if !bytes.Equal(san.series, hybrid.series) {
			t.Errorf("%s: NDJSON epoch traces diverge between engines", b.Abbr)
		}
	}
}

// fullRuns are TestEnginesByteIdenticalFullRuns' rows, all at scale
// 0.125: each listed engine runs the benchmark on the architecture to
// natural completion and must match hybrid byte for byte. The naive rows
// are one cheap workload per class; the sanitize rows are the
// hint-soundness smoke, each there for the sleeps and parks it reaches
// (DESIGN.md §9 "Sleep deadlines" and "Parks").
var fullRuns = []struct {
	arch    Arch
	bench   string
	engines []Engine
}{
	// A wavelet stencil, an irregular tree and a matvec. They park
	// little: under sanitize they are the sleep check's.
	{NUBA, "DWT2D", []Engine{EngineNaive, EngineSanitize}},
	{NUBA, "BH", []Engine{EngineNaive, EngineSanitize}},
	{NUBA, "MVT", []Engine{EngineNaive, EngineSanitize}},
	// A decomposition, an RNN and a CNN.
	{NUBA, "LEU", []Engine{EngineNaive}},
	{NUBA, "GRU", []Engine{EngineNaive}},
	{NUBA, "SN", []Engine{EngineNaive}},
	// AN is LSU-bound: its SMs spend the run with warps waiting for an LSU
	// entry, the state whose wake hint is "never" rather than "next
	// cycle". It reaches the LSU's parks (a full L1 MSHR file, ended by the
	// reply's door) and the slice arbiter's.
	{NUBA, "AN", []Engine{EngineSanitize}},
	// SM (Stringmatch) is the fabric's: the others stay ≥ 97 % local on
	// NUBA, its atomics are 82 % remote. It reaches the parks of the SM
	// send queue, the SM-request links and both crossbars' stage 1 and
	// stage 2 (port serialization, full input queues, full middle and
	// egress links).
	{NUBA, "SM", []Engine{EngineSanitize}},
	// On the memory-side UBA every miss crosses both crossbars: the
	// flights the crossbar's earliest-arrival hint lets hybrid skip, and
	// the same crossbar parks with SMs as the injectors.
	{UBAMem, "SM", []Engine{EngineSanitize}},
	// The SM-side UBA is the one layout whose coherence invalidations
	// enter slices through EnqueueLocal/EnqueueRemote off the inter-half
	// links: the sleep check's doors on the third builder.
	{UBASMSide, "SM", []Engine{EngineSanitize}},
	// LBM holds channel queues full: the slice outbox parked on a full
	// channel queue, bounded by the data bus, the park nothing else fills
	// for long — from a NUBA slice beside its channel and, on the
	// memory-side UBA, with the reply crossbar backed up behind it.
	{NUBA, "LBM", []Engine{EngineSanitize}},
	{UBAMem, "LBM", []Engine{EngineSanitize}},
}

func TestEnginesByteIdenticalFullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs each row to completion under hybrid and its engines")
	}
	type capture struct {
		report string
		series []byte
		chrome []byte
	}
	// run reports a failed run and returns false, so that a hybrid hang
	// does not keep the sanitizer's verdict on the same row from being heard.
	run := func(t *testing.T, cfg Config, b Benchmark, e Engine) (capture, bool) {
		t.Helper()
		var series, chrome bytes.Buffer
		res, err := Run(context.Background(), cfg, b, WithEngine(e),
			WithTrace(&TraceOptions{Series: &series, Chrome: &chrome}))
		if err != nil {
			t.Errorf("%v engine: %v", e, err)
			return capture{}, false
		}
		return capture{
			report: fmt.Sprintf("%+v\n%s", *res.Stats, DetailTable(res.Stats)),
			series: series.Bytes(),
			chrome: chrome.Bytes(),
		}, true
	}
	for _, row := range fullRuns {
		cfg := Baseline().WithArch(row.arch).Scale(0.125)
		b, err := BenchmarkByAbbr(row.bench)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.Arch.String()+"/"+row.bench, func(t *testing.T) {
			t.Parallel()
			hybrid, ok := run(t, cfg, b, EngineHybrid)
			if ok && (len(hybrid.series) == 0 || len(hybrid.chrome) == 0) {
				t.Errorf("empty trace — comparison is vacuous")
			}
			for _, e := range row.engines {
				got, gotOK := run(t, cfg, b, e)
				if !ok || !gotOK {
					continue
				}
				if got.report != hybrid.report {
					t.Errorf("reports diverge between engines\n%v: %s\nhybrid: %s", e, got.report, hybrid.report)
				}
				if !bytes.Equal(got.series, hybrid.series) {
					t.Errorf("NDJSON epoch traces diverge between %v and hybrid", e)
				}
				if !bytes.Equal(got.chrome, hybrid.chrome) {
					t.Errorf("Chrome traces diverge between %v and hybrid", e)
				}
			}
		})
	}
}

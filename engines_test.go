package nuba

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/trace"
)

// The tentpole guarantee of the idle-skip engine: the hybrid engine is
// byte-identical to the naive reference and survives the sanitize
// checker. Two kinds of test split the guarantee so the whole thing fits
// a `go test ./...` budget:
//
//   - Four whole-suite tests cover every benchmark in the Table 2 suite
//     under a hard cycle cap, each reading its own column of one shared
//     pass (suiteRuns). Cycle-exact engines must agree on the complete
//     machine state at every cycle, so agreement over the first 256 Ki
//     cycles of all 29 workloads — stats, streamed traces and the
//     capped-or-drained outcome itself — is checked without paying for the
//     multi-hundred-M-cycle tails some workloads grow at the test's 0.125
//     scale (NW alone exceeds the 80 M-cycle safety limit there).
//   - TestEnginesByteIdenticalFullRuns runs a cheap subset to natural
//     completion, under naive and under sanitize, covering the
//     kernel-boundary flush, the final drain and the finished traces that
//     a capped run never reaches.
//
// Any hint that is not conservative shows up as a diverging counter, a
// diverging trace byte, or one engine draining where the other hits the
// cap.

// capture is everything observable from one engine run.
type capture struct {
	outcome        string // "drained", or the MaxCycles error a capped run ended in
	report         string // the full counter struct plus the deep-dive table
	series, chrome []byte // the NDJSON epoch series and the Chrome trace
	live           int64  // memory requests not yet retired when the run ended
	digest         uint64 // Stats.Digest of the run
}

// run executes b on cfg under engine e with both trace sinks attached. It
// tolerates (and records) the MaxCycles error a capped run ends in and
// returns any other: a sanitizer diagnostic, a *HangError. It drives
// internal/core directly because the public Run returns no Result for a
// capped run.
func run(cfg Config, b Benchmark, e Engine) (capture, error) {
	g, err := core.New(cfg)
	if err != nil {
		return capture{}, err
	}
	g.SetEngine(e)
	var series, chrome bytes.Buffer
	tr := trace.New(trace.Options{Series: &series, Chrome: &chrome, EpochCycles: 10_000}, cfg.CoreClockGHz)
	tr.Begin(trace.Meta{Bench: b.Abbr, Config: cfg.Name(), Partitions: cfg.NumPartitions()})
	g.AttachTracer(tr)
	launches, err := b.Build(g.NewBuffer)
	if err != nil {
		return capture{}, fmt.Errorf("build: %w", err)
	}
	outcome := "drained"
	err = g.RunProgramContext(context.Background(), launches)
	tr.Close() // into memory: it cannot fail
	if err != nil {
		if !g.HitMaxCycles() {
			return capture{}, err
		}
		outcome = err.Error()
	}
	st := g.Stats()
	return capture{
		outcome: outcome,
		report:  fmt.Sprintf("%+v\n%s", *st, DetailTable(st)),
		series:  series.Bytes(),
		chrome:  chrome.Bytes(),
		live:    g.LiveRequests(),
		digest:  st.Digest(),
	}, nil
}

// verdict lists what is wrong with got, b's run under engine e that
// ended in err: the error itself, an empty trace, requests a drained run
// never retired (a double release panics in the run) and, against ref,
// its hybrid reference (nil for the reference itself), any divergence in
// outcome, report or either trace.
func verdict(b Benchmark, e Engine, got capture, err error, ref *capture) []string {
	if err != nil {
		return []string{fmt.Sprintf("%s: %v engine: %v", b.Abbr, e, err)}
	}
	var bad []string
	add := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s: %v engine: ", b.Abbr, e)+fmt.Sprintf(format, args...))
	}
	if len(got.series) == 0 || len(got.chrome) == 0 {
		add("empty trace — comparison is vacuous")
	}
	if got.outcome == "drained" && got.live != 0 {
		add("%d requests never retired", got.live)
	}
	if ref == nil {
		return bad
	}
	if got.outcome != ref.outcome {
		add("outcomes diverge\n%v: %s\nhybrid: %s", e, got.outcome, ref.outcome)
	}
	if got.report != ref.report {
		add("reports diverge\n%v: %s\nhybrid: %s", e, got.report, ref.report)
	}
	if !bytes.Equal(got.series, ref.series) {
		add("NDJSON epoch traces diverge from hybrid")
	}
	if !bytes.Equal(got.chrome, ref.chrome) {
		add("Chrome traces diverge from hybrid")
	}
	return bad
}

// cappedConfig is the system the whole-suite tests run the suite on.
func cappedConfig() Config {
	cfg := NUBAConfig().Scale(0.125)
	// A multiple of both the 64-cycle batch and MemClockDiv, far enough
	// to reach steady state on every workload yet bounded in wall time.
	cfg.MaxCycles = 256 * 1024
	return cfg
}

// suiteRow is one benchmark's share of the whole-suite pass. The traces
// and reports are compared in the pass and dropped, so 29 rows hold only
// verdicts.
type suiteRow struct {
	outcome string              // the reference's ending; "" where it did not run clean
	digest  uint64              // the reference's Stats.Digest
	bad     map[Engine][]string // each engine's verdict, hybrid's the reference's own
}

// suiteRuns is the whole-suite pass, simulated once per test binary by
// whichever whole-suite test asks first, so each still runs alone under
// -run. The benchmarks are spread over GOMAXPROCS workers, and each runs
// three capped simulations:
//
//   - The hybrid reference, at the watchdog's smallest window. At
//     cappedConfig's own window (224,000 cycles) the guard cannot reach a
//     verdict inside the 256 Ki-cycle cap. The suite is prewarmed and
//     never pays a page fault, so zeroing the fault penalty moves no
//     simulated cycle and only pulls the window down to its 64 Ki floor.
//   - naive, the reference, and sanitize, the wake-hint contract's
//     checker, at cappedConfig, each matched to the hybrid reference.
//
// A write-once value, safe for any number of goroutines to read.
var suiteRuns = sync.OnceValue(func() []suiteRow {
	suite := Suite()
	rows := make([]suiteRow, len(suite))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i] = runSuiteRow(suite[i])
			}
		}()
	}
	for i := range suite {
		next <- i
	}
	close(next)
	wg.Wait()
	return rows
})

// runSuiteRow is b's row of suiteRuns.
func runSuiteRow(b Benchmark) suiteRow {
	tight := cappedConfig()
	tight.PageFaultLatency = 0
	ref, err := run(tight, b, EngineHybrid)
	row := suiteRow{bad: map[Engine][]string{EngineHybrid: verdict(b, EngineHybrid, ref, err, nil)}}
	var against *capture
	if err == nil {
		row.outcome, row.digest, against = ref.outcome, ref.digest, &ref
	}
	for _, e := range []Engine{EngineNaive, EngineSanitize} {
		got, gotErr := run(cappedConfig(), b, e)
		if against == nil {
			row.bad[e] = []string{fmt.Sprintf("%s: no clean hybrid reference to match %v against", b.Abbr, e)}
		}
		row.bad[e] = append(row.bad[e], verdict(b, e, got, gotErr, against)...)
	}
	return row
}

// suiteColumn fails t with engine e's verdict on every benchmark of the
// whole-suite pass, and returns the pass's rows.
func suiteColumn(t *testing.T, e Engine) []suiteRow {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark under three engines, once for all four whole-suite tests")
	}
	rows := suiteRuns()
	for _, row := range rows {
		for _, msg := range row.bad[e] {
			t.Error(msg)
		}
	}
	return rows
}

// TestWatchdogSuiteNoFalsePositives is the watchdog's false-positive
// proof over the whole Table 2 suite: the reference runs at the 64 Ki
// window, a quarter of the production one, so any *HangError in its
// column is a false positive. The watchdog reads only pure state
// signatures, so the tight window must also move nothing: the naive and
// sanitize columns, run at cappedConfig's own window, match it byte for
// byte.
func TestWatchdogSuiteNoFalsePositives(t *testing.T) {
	suiteColumn(t, EngineHybrid)
}

// TestEnginesByteIdenticalAcrossSuite: every benchmark under naive
// matches the hybrid reference in outcome, report and both traces, and
// the suite exercises both endings.
func TestEnginesByteIdenticalAcrossSuite(t *testing.T) {
	var drained, capped int
	for _, row := range suiteColumn(t, EngineNaive) {
		switch row.outcome {
		case "":
		case "drained":
			drained++
		default:
			capped++
		}
	}
	// The suite must exercise both endings: full drains (flush + final
	// quiescence) and cap hits (clamped batch, error path).
	if drained == 0 || capped == 0 {
		t.Errorf("unbalanced coverage: %d drained, %d capped — adjust MaxCycles", drained, capped)
	}
}

// TestSanitizeSuite is the wake-hint-contract proof over the suite: every
// idle window the hint scan claims across the whole suite is re-scanned,
// stepped cycle by cycle and cross-checked against per-component state
// signatures. A single unsound or impure hint fails the run with a
// cycle/component diagnostic, and the clean runs must stay byte-identical
// to the hybrid engine they are vouching for.
func TestSanitizeSuite(t *testing.T) {
	suiteColumn(t, EngineSanitize)
}

// TestSuiteDigestsGolden pins what the simulator says: the reference
// digest of every Table 2 benchmark against testdata/suite_digests.txt. A
// change that moves a simulated cycle anywhere in the suite fails here
// naming the benchmarks; one that means to regenerates the file and shows
// the moved rows as its diff:
//
//	REGEN=1 go test -run TestSuiteDigestsGolden .
func TestSuiteDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; runs every benchmark under three engines, once for all four whole-suite tests")
	}
	const golden = "testdata/suite_digests.txt"
	var got strings.Builder
	suite := Suite()
	for i, row := range suiteRuns() {
		if row.outcome == "" {
			t.Fatal(strings.Join(row.bad[EngineHybrid], "\n"))
		}
		fmt.Fprintf(&got, "%-8s %016x\n", suite[i].Abbr, row.digest)
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
	for _, row := range fullRuns {
		cfg := Baseline().WithArch(row.arch).Scale(0.125)
		b, err := BenchmarkByAbbr(row.bench)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.Arch.String()+"/"+row.bench, func(t *testing.T) {
			t.Parallel()
			ref, err := run(cfg, b, EngineHybrid)
			bad := verdict(b, EngineHybrid, ref, err, nil)
			var against *capture // nil where the reference failed: its own failure is reported, and each engine's still is
			if err == nil {
				against = &ref
				if ref.outcome != "drained" {
					bad = append(bad, b.Abbr+": "+ref.outcome)
				}
			}
			for _, e := range row.engines {
				got, gotErr := run(cfg, b, e)
				bad = append(bad, verdict(b, e, got, gotErr, against)...)
			}
			for _, msg := range bad {
				t.Error(msg)
			}
		})
	}
}

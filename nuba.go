// Package nuba is a cycle-level GPU memory-system simulator reproducing
// "NUBA: Non-Uniform Bandwidth GPUs" (Zhao, Jahre, Tang, Zhang, Eeckhout;
// ASPLOS 2023).
//
// It models three GPU system architectures — the conventional memory-side
// Uniform Bandwidth Architecture (UBA), the SM-side UBA of the A100, and
// the paper's Non-Uniform Bandwidth Architecture (NUBA) — together with
// the full software/compiler/architecture stack NUBA needs: the
// Local-And-Balanced (LAB) page placement policy in the GPU driver,
// compile-time read-only data-flow analysis over a PTX-like kernel IR,
// and Model-Driven Replication (MDR) of read-only shared cache lines.
//
// Quick start:
//
//	bench, _ := nuba.BenchmarkByAbbr("SGEMM")
//	res, err := nuba.Run(context.Background(), nuba.NUBAConfig(), bench)
//	if err != nil { ... }
//	fmt.Println(res.Stats.IPC(), res.Stats.RepliesPerCycle())
//
// The three headline configurations are Baseline() (memory-side UBA),
// SMSideConfig() and NUBAConfig(); Config methods (WithNoC, Scale,
// WithPartition, ...) derive every sensitivity point in the paper's
// evaluation. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-versus-measured results.
package nuba

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"strings"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/energy"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/trace"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Re-exported core types. These aliases are the supported public surface;
// the internal packages they point at may reorganize freely.
type (
	// Config describes a simulated GPU system (Table 1 plus policies).
	Config = config.Config
	// Arch selects the GPU system architecture.
	Arch = config.Arch
	// PlacementPolicy selects the driver's page placement policy.
	PlacementPolicy = config.PlacementPolicy
	// ReplicationPolicy selects the cache-line replication policy.
	ReplicationPolicy = config.ReplicationPolicy
	// AddressMapping selects the physical address mapping policy.
	AddressMapping = config.AddressMapping
	// Stats holds the measured statistics of one run.
	Stats = metrics.Stats
	// Benchmark is one entry of the Table 2 workload suite — or a
	// caller's own kernels: Benchmark{Abbr: "mine", Build: ...} runs
	// whatever launches Build returns (examples/customkernel).
	Benchmark = workload.Benchmark
	// Alloc is what a Benchmark's Build binds its buffers with: it
	// reserves a page-aligned virtual range and returns its base.
	Alloc = workload.Alloc
	// System is an assembled GPU ready to run kernels.
	System = core.GPU
	// Kernel is a compiled kernel in the PTX-like IR.
	Kernel = kir.Kernel
	// Launch binds a kernel to a grid and buffers.
	Launch = kir.Launch
	// Binding places one buffer parameter in the virtual address space.
	Binding = kir.Binding
	// SharingHistogram is the Figure 3 page-sharing data of a run.
	SharingHistogram = metrics.SharingHistogram
	// TraceOptions select the observability sinks of a traced run: an
	// NDJSON epoch time series and/or a Chrome trace_event JSON export.
	// The emitted schema is documented in docs/OBSERVABILITY.md.
	TraceOptions = trace.Options
	// LineChart is the ASCII time-series chart (for plotting epoch
	// traces, e.g. NPB over time).
	LineChart = metrics.LineChart
	// HangError is the error a run fails with when the machine stops
	// making forward progress; its Report field carries the structured
	// diagnosis (see docs/ROBUSTNESS.md).
	HangError = core.HangError
	// HangReport names the stuck components, their queue depths and
	// their last wake hints at hang-detection time.
	HangReport = core.HangReport
	// ComponentState is one stuck component within a HangReport.
	ComponentState = core.ComponentState
)

// Architectures.
const (
	UBAMem    = config.UBAMem
	UBASMSide = config.UBASMSide
	NUBA      = config.NUBA
)

// Page placement policies (Section 4).
const (
	FirstTouch      = config.FirstTouch
	RoundRobin      = config.RoundRobin
	LAB             = config.LAB
	Migration       = config.Migration
	PageReplication = config.PageReplication
)

// Replication policies (Section 5).
const (
	NoRep   = config.NoRep
	FullRep = config.FullRep
	MDR     = config.MDR
)

// Address mappings (Section 2).
const (
	FixedChannel = config.FixedChannel
	PAE          = config.PAE
)

// ParseArch, ParsePlacement and ParseReplication parse the -arch,
// -placement and -replication flag values: the short spelling the
// matching *Usage function lists ("uba | sm-side | nuba") or the name
// result tables print ("UBA-SM", "Full-Rep"), in any case.
func ParseArch(s string) (Arch, error)                     { return config.ParseArch(s) }
func ParsePlacement(s string) (PlacementPolicy, error)     { return config.ParsePlacement(s) }
func ParseReplication(s string) (ReplicationPolicy, error) { return config.ParseReplication(s) }
func ArchUsage() string                                    { return config.ArchUsage() }
func PlacementUsage() string                               { return config.PlacementUsage() }
func ReplicationUsage() string                             { return config.ReplicationUsage() }

// Baseline returns the Table 1 memory-side UBA GPU.
func Baseline() Config { return config.Baseline() }

// NUBAConfig returns the paper's NUBA GPU: 32 partitions of {2 SMs,
// 2 LLC slices, 1 memory channel} with LAB placement and MDR replication.
func NUBAConfig() Config { return config.NUBABaseline() }

// SMSideConfig returns the SM-side UBA (A100-style) GPU.
func SMSideConfig() Config { return config.SMSideBaseline() }

// MCMConfig returns the Figure 16 four-module MCM GPU of the given
// architecture: NUBA or the memory-side UBA (the SM-side UBA's two halves
// are one chip, and Validate rejects it on more modules).
func MCMConfig(a Arch) Config { return config.MCM(a) }

// NewSystem assembles a GPU for the configuration.
func NewSystem(cfg Config) (*System, error) { return core.New(cfg) }

// Suite returns the full 29-benchmark Table 2 suite.
func Suite() []Benchmark { return workload.Suite() }

// LowSharing returns the low-sharing half of the suite.
func LowSharing() []Benchmark { return workload.LowSharing() }

// HighSharing returns the high-sharing half of the suite.
func HighSharing() []Benchmark { return workload.HighSharing() }

// BenchmarkByAbbr looks a benchmark up by its Table 2 abbreviation
// (e.g. "SGEMM", "BICG"), in any case.
func BenchmarkByAbbr(abbr string) (Benchmark, error) { return workload.ByAbbr(abbr) }

// ParseBenchmarks parses a -bench flag value: a comma-separated list of
// abbreviations (spaces and case ignored), or "all" for the full suite.
func ParseBenchmarks(list string) ([]Benchmark, error) {
	if strings.EqualFold(strings.TrimSpace(list), "all") {
		return Suite(), nil
	}
	var out []Benchmark
	for _, abbr := range strings.Split(list, ",") {
		b, err := workload.ByAbbr(strings.TrimSpace(abbr))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// CheckScale checks a -scale flag value: Baseline().Scale(factor) keeps
// every bandwidth per SM only if the factor gives whole, positive SM,
// LLC slice and channel counts (Config.Scale truncates).
func CheckScale(factor float64) error {
	if !(factor > 0) {
		return fmt.Errorf("-scale must be positive (got %g)", factor)
	}
	c := Baseline()
	sms, slices, chans := float64(c.NumSMs)*factor, float64(c.NumLLCSlices)*factor, float64(c.NumChannels)*factor
	for _, n := range []float64{sms, slices, chans} {
		if n < 1 || n != math.Trunc(n) || math.IsInf(n, 0) {
			return fmt.Errorf("-scale %g gives %g SMs, %g LLC slices and %g channels; want whole, positive counts", factor, sms, slices, chans)
		}
	}
	return nil
}

// ParseKernel compiles kernel assembly (see internal/kir for the grammar)
// and runs the read-only data-flow analysis.
func ParseKernel(src string) (*Kernel, error) { return kir.Parse(src) }

// Result bundles everything measured in one run.
type Result struct {
	// Stats are the hardware counters (IPC, bandwidth, breakdowns) and
	// the modeled energy derived from them.
	Stats *Stats
	// Sharing is the page-sharing histogram.
	Sharing *SharingHistogram
	// System is the GPU the run executed on, for deeper inspection. Run's
	// direct callers get it; a result read back from a batch
	// (internal/experiments' memo cache) has it nil, so that a finished
	// job costs its measurements and not its whole machine.
	System *System
}

// Engine selects what the cycle loop does with windows the wake hints
// claim idle (skip, never ask, verify). All engines are cycle-exact —
// reports and traces are byte-identical — and differ only in wall-clock
// speed. The command-line tools run EngineHybrid; the other two are the
// oracles the cross-engine tests hold it to.
type Engine = core.Engine

// Cycle-loop engines.
const (
	// EngineHybrid is the default idle-skip engine: components report
	// wake-up hints and the clock fast-forwards over proven-idle gaps.
	EngineHybrid = core.EngineHybrid
	// EngineNaive ticks every component every cycle.
	EngineNaive = core.EngineNaive
	// EngineSanitize is the hybrid engine's soundness checker: instead
	// of skipping a claimed-idle window it steps through it, comparing
	// per-component state signatures and run statistics after every
	// cycle, and fails the run on the first unsound wake hint. Clean
	// runs are byte-identical to the other engines but much slower —
	// a verification tool, not a production engine.
	EngineSanitize = core.EngineSanitize
)

// RunOption configures a Run call.
type RunOption func(*runConfig)

// runConfig is the merged option set of one Run call.
type runConfig struct {
	trace  *TraceOptions
	engine Engine
	arm    func(sys *System) error
}

// WithTrace attaches observability sinks to the run: the NDJSON epoch
// time series and/or Chrome trace selected by topts (schema in
// docs/OBSERVABILITY.md). A nil topts — or one with no sink — runs
// untraced; tracing is passive, so the simulated cycles are identical
// either way. The caller owns the sink writers; the run finishes the
// streams but does not close files.
func WithTrace(topts *TraceOptions) RunOption {
	return func(rc *runConfig) { rc.trace = topts }
}

// WithEngine selects the cycle-loop engine (default EngineHybrid). All
// engines produce byte-identical results; Run refuses a value that is
// none of the three.
func WithEngine(e Engine) RunOption {
	return func(rc *runConfig) { rc.engine = e }
}

// WithArm installs a pre-run hook called after the system is assembled
// and before any kernel launches, with the fully wired System (nil =
// none). Tests inject faults through it — sys.Inject, docs/ROBUSTNESS.md
// — or do any other pre-run surgery. An error aborts the run.
func WithArm(arm func(sys *System) error) RunOption {
	return func(rc *runConfig) { rc.arm = arm }
}

// PanicError is the error a run fails with when the simulator panics (a
// model invariant blown mid-run). Run recovers the panic so one bad job
// cannot take down a whole sweep process; the original panic value and
// goroutine stack ride along for diagnosis.
type PanicError struct {
	// Label identifies the run: the benchmark's Abbr.
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("nuba: panic in run %s: %v", e.Label, e.Value)
}

// Run is the single entry point for one simulation: it assembles a GPU
// for cfg, attaches tracing when requested (WithTrace), builds the
// benchmark's kernels (b.Build, which may be the caller's own) into the
// address space, executes them to completion under ctx and bundles the
// measurements. A long simulation stops promptly once ctx is canceled
// and returns an error wrapping ctx.Err() — a caller's host-time budget
// is a ctx deadline. Every run is guarded: one that stops making forward
// progress fails with a *HangError within about 1.25 no-progress windows,
// a window worked out from cfg (docs/ROBUSTNESS.md §2). Trace sinks and
// the engine choice (WithEngine) deliberately live outside Config so
// traced/untraced and hybrid/naive runs share config fingerprints (the
// experiment engine's memo key) and simulate identically. A simulator
// panic is recovered into a *PanicError so one bad run cannot take down
// a whole sweep process.
//
// Run is one simulation on the calling goroutine and holds no state
// between calls, so concurrent calls are independent; a batch of them —
// memoised, with failures kept as data — is internal/experiments'
// Runner, which the command-line tools drive.
func Run(ctx context.Context, cfg Config, b Benchmark, opts ...RunOption) (res *Result, err error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.engine > EngineSanitize {
		return nil, fmt.Errorf("nuba: unknown engine %v", rc.engine)
	}
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Label: b.Abbr, Value: r, Stack: debug.Stack()}
		}
	}()
	g, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	g.SetEngine(rc.engine)
	if rc.arm != nil {
		if err := rc.arm(g); err != nil {
			return nil, fmt.Errorf("nuba: arm hook: %w", err)
		}
	}
	var tr *trace.Tracer
	if rc.trace != nil && rc.trace.Enabled() {
		o := *rc.trace
		if o.EpochCycles <= 0 {
			o.EpochCycles = cfg.MDREpoch
		}
		tr = trace.New(o, cfg.CoreClockGHz)
		tr.Begin(trace.Meta{Bench: b.Abbr, Config: cfg.Name(), Partitions: cfg.NumPartitions()})
		g.AttachTracer(tr)
	}
	launches, err := b.Build(g.NewBuffer)
	if err != nil {
		return nil, err
	}
	runErr := g.RunProgramContext(ctx, launches)
	if tr != nil {
		if cerr := tr.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("trace sink: %w", cerr)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	g.EnergyBreakdown(energy.DefaultParams())
	return &Result{Stats: g.Stats(), Sharing: g.Sharing(), System: g}, nil
}

// DetailTable renders the single-run deep-dive counter table (L1/TLB
// hit breakdowns, NoC serialization, coherence traffic) for CLIs that
// want more than the headline Stats line.
func DetailTable(s *Stats) string { return metrics.DetailTable(s) }

// Speedup returns candidate's IPC over baseline's — but since runs execute
// identical work, it uses the inverse cycle ratio, the paper's speedup
// definition.
func Speedup(candidate, baseline *Result) float64 {
	if candidate.Stats.Cycles == 0 {
		return 0
	}
	return float64(baseline.Stats.Cycles) / float64(candidate.Stats.Cycles)
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulator: each experiment is a named
// recipe that runs the required {architecture, policy, benchmark}
// combinations and prints rows in the shape the paper reports. See
// DESIGN.md for the experiment index.
//
// Experiments execute through a concurrent engine (see engine.go): each
// experiment declares the deduplicated set of (Config, Benchmark) jobs it
// needs, the engine simulates them across a worker pool into a
// concurrency-safe memo cache, and the report is then rendered serially
// from the warm cache — so the output is byte-identical regardless of the
// worker count, and figures sharing runs (fig7/8/9/13 all reuse the
// iso-resource runs) never recompute.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/fault"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Options configure a Runner.
type Options struct {
	// Benchmarks restricts the workload set (default: the full suite).
	Benchmarks []workload.Benchmark
	// Scale scales the GPU size (1.0 = the 64-SM baseline). Experiments
	// that sweep GPU size ignore it.
	Scale float64
	// Jobs is the worker-pool size used to execute an experiment's job
	// set; zero or negative selects runtime.GOMAXPROCS(0). Jobs = 1
	// reproduces the historical strictly-serial execution.
	Jobs int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// OnEvent, when non-nil, receives a structured Event per completed
	// run (run counts, elapsed time, ETA). Calls are serialized.
	OnEvent func(Event)
	// Trace, when non-nil, is consulted once per simulation and may
	// return that run's trace sinks (docs/OBSERVABILITY.md); nil keeps
	// the run untraced. It is called concurrently from the worker pool,
	// so it must be safe for concurrent use and must hand each run its
	// own writers. Tracing never enters the memo key: a (Config,
	// Benchmark) pair shared by several figures still simulates exactly
	// once (so Trace is consulted once for it), reports stay
	// byte-identical for any Jobs value, and each run's trace is too.
	Trace func(cfgName, bench string) *nuba.TraceOptions
	// Engine selects the cycle-loop engine (default nuba.EngineHybrid).
	// Like Trace it never enters the memo key: all engines are
	// cycle-exact, so the engine changes only how fast a job simulates,
	// never its result.
	Engine nuba.Engine
	// Watchdog arms each run's forward-progress watchdog: the run fails
	// with a structured hang report once no component state changes for
	// this many simulated cycles while work is outstanding (0 = off).
	// The watchdog reads only pure state signatures, so results are
	// byte-identical with it on or off; like Trace and Engine it never
	// enters the memo key.
	Watchdog int64
	// Faults, when non-nil, maps (config, benchmark) jobs to injected
	// fault specs and transient failures — the seeded stress matrix
	// (see internal/fault and docs/ROBUSTNESS.md). Production sweeps
	// leave it nil.
	Faults *fault.Plan
	// Retries is how many times a failed job is re-attempted when its
	// error is transient (implements `Transient() bool`). Deterministic
	// failures — hangs, panics, model errors — are never retried.
	Retries int
	// RetryBackoff is the base wait between retry attempts; the wait
	// grows linearly with the attempt number, is capped at 2s, and
	// aborts promptly when the context is canceled. Zero selects 50ms.
	RetryBackoff time.Duration
}

// JobFailure records one job the pool gave up on: the failing
// configuration and benchmark, the final error, whether it was a
// recovered panic (with the stack), and how many attempts were made.
// The slice of these is the report's explicit failures section — the
// schema is documented in docs/ROBUSTNESS.md.
type JobFailure struct {
	// Config is the configuration's display name; Fingerprint its
	// canonical identity (the memo key prefix).
	Config      string
	Fingerprint string
	// Bench is the benchmark abbreviation.
	Bench string
	// Err is the final attempt's error text.
	Err string
	// Panic reports whether the failure was a recovered simulator
	// panic; Stack then holds the panicking goroutine's stack.
	Panic bool
	Stack string
	// Attempts is the number of attempts made (1 = no retries).
	Attempts int
}

// Report is a rendered experiment plus the jobs that could not be
// simulated. A non-empty Failures means Text is a partial report: the
// failed benchmarks are excluded from every table and listed in the
// trailing failures section instead.
type Report struct {
	Text     string
	Failures []JobFailure
}

// Runner executes experiments, memoizing runs shared between figures
// (fig7/fig8/fig9/fig13 all reuse the iso-resource runs). All methods are
// safe for concurrent use; the memo cache is singleflight, so a run
// requested by several workers simulates exactly once.
type Runner struct {
	opts Options

	mu       sync.Mutex
	cache    map[string]*cacheEntry
	failures map[string]JobFailure // terminally failed jobs, by jobKey
	planned  int                   // jobs scheduled across Execute/Prefetch calls
	done     int                   // simulations completed
	started  time.Time             // first simulation start, for elapsed/ETA
}

// cacheEntry is one singleflight slot: the first requester simulates and
// closes ready; everyone else blocks on ready and reads res/err.
type cacheEntry struct {
	ready chan struct{}
	res   *nuba.Result
	err   error
}

// NewRunner returns a Runner.
func NewRunner(opts Options) *Runner {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = workload.Suite()
	}
	return &Runner{
		opts:     opts,
		cache:    make(map[string]*cacheEntry),
		failures: make(map[string]JobFailure),
	}
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	Name  string
	Title string
	// Run renders the experiment's report. Runs it needs that are not
	// already cached are simulated inline (serially).
	Run func(r *Runner) (string, error)
	// Plan enumerates the simulations Run will consume, so the engine
	// can execute them across the worker pool first. Nil for
	// experiments that need no simulation (table2).
	Plan func(r *Runner) []Job
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{Name: "table2", Title: "Table 2: benchmark suite and footprints", Run: (*Runner).table2},
		{Name: "fig3", Title: "Figure 3: memory page sharing degree", Run: (*Runner).fig3, Plan: (*Runner).fig3Plan},
		{Name: "fig7", Title: "Figure 7: iso-resource speedup over UBA", Run: (*Runner).fig7, Plan: (*Runner).isoPlan},
		{Name: "fig8", Title: "Figure 8: perceived bandwidth (replies/cycle)", Run: (*Runner).fig8, Plan: (*Runner).isoPlan},
		{Name: "fig9", Title: "Figure 9: L1 miss breakdown (local/remote)", Run: (*Runner).fig9, Plan: (*Runner).isoPlan},
		{Name: "fig10", Title: "Figure 10: performance vs NoC power", Run: (*Runner).fig10, Plan: (*Runner).fig10Plan},
		{Name: "fig11", Title: "Figure 11: page allocation policies", Run: (*Runner).fig11, Plan: (*Runner).fig11Plan},
		{Name: "fig12", Title: "Figure 12: data replication policies", Run: (*Runner).fig12, Plan: (*Runner).fig12Plan},
		{Name: "fig13", Title: "Figure 13: GPU energy breakdown", Run: (*Runner).fig13, Plan: (*Runner).isoPlan},
		{Name: "fig14-size", Title: "Figure 14: GPU size sensitivity", Run: (*Runner).fig14Size, Plan: (*Runner).fig14SizePlan},
		{Name: "fig14-partition", Title: "Figure 14: LLC slices per partition", Run: (*Runner).fig14Partition, Plan: (*Runner).fig14PartitionPlan},
		{Name: "fig14-llc", Title: "Figure 14: LLC capacity sensitivity", Run: (*Runner).fig14LLC, Plan: (*Runner).fig14LLCPlan},
		{Name: "fig14-page", Title: "Figure 14: page size sensitivity", Run: (*Runner).fig14Page, Plan: (*Runner).fig14PagePlan},
		{Name: "fig14-addrmap", Title: "Figure 14: PAE address mapping", Run: (*Runner).fig14AddrMap, Plan: (*Runner).fig14AddrMapPlan},
		{Name: "fig14-lab", Title: "Figure 14: LAB threshold sensitivity", Run: (*Runner).fig14LAB, Plan: (*Runner).fig14LABPlan},
		{Name: "fig16", Title: "Figure 16: MCM-GPU", Run: (*Runner).fig16, Plan: (*Runner).fig16Plan},
		{Name: "alt-placement", Title: "Section 7.6: migration / page replication", Run: (*Runner).altPlacement, Plan: (*Runner).altPlacementPlan},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Names lists the experiment names.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	return out
}

// run executes (or returns the memoized) result of one configuration and
// benchmark. It is the serial entry point the figure renderers use; the
// engine's workers go through runCtx.
func (r *Runner) run(cfg nuba.Config, b workload.Benchmark) (*nuba.Result, error) {
	return r.runCtx(context.Background(), cfg, b)
}

// runCtx is run under a context, with singleflight memoization: the first
// caller of a (config, benchmark) pair simulates it, concurrent callers
// block until it completes, later callers hit the cache. A canceled run
// is evicted so a later call can re-simulate; a deterministically failed
// run stays cached with its error (re-running would fail identically)
// and is recorded as a JobFailure.
func (r *Runner) runCtx(ctx context.Context, cfg nuba.Config, b workload.Benchmark) (*nuba.Result, error) {
	key := jobKey(&cfg, b.Abbr)
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		select {
		case <-e.ready:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	r.cache[key] = e
	r.markStarted()
	r.mu.Unlock()

	res, attempts, err := r.simulate(ctx, cfg, b)
	if err != nil {
		err = fmt.Errorf("%s on %s: %w", b.Abbr, cfg.Name(), err)
	}
	e.res, e.err = res, err

	r.mu.Lock()
	switch {
	case err == nil:
		r.done++
		r.emitLocked(cfg.Name(), b.Abbr, res)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		delete(r.cache, key)
	default:
		r.recordFailureLocked(key, &cfg, b, err, attempts)
	}
	r.mu.Unlock()
	close(e.ready)
	return res, err
}

// simulate executes one run with the runner's watchdog, fault plan and
// bounded ctx-aware retry policy applied. It returns the attempt count
// alongside the final result.
func (r *Runner) simulate(ctx context.Context, cfg nuba.Config, b workload.Benchmark) (*nuba.Result, int, error) {
	var topts *nuba.TraceOptions
	if r.opts.Trace != nil {
		topts = r.opts.Trace(cfg.Name(), b.Abbr)
	}
	opts := []nuba.RunOption{
		nuba.WithTrace(topts),
		nuba.WithEngine(r.opts.Engine),
	}
	if r.opts.Watchdog > 0 {
		opts = append(opts, nuba.WithWatchdog(nuba.WatchdogOptions{NoProgressCycles: r.opts.Watchdog}))
	}
	if r.opts.Faults != nil {
		if spec, ok := r.opts.Faults.For(cfg.Name(), b.Abbr); ok {
			opts = append(opts, nuba.WithArm(spec.Arm))
		}
	}
	for attempts := 1; ; attempts++ {
		var res *nuba.Result
		var err error
		if r.opts.Faults != nil {
			err = r.opts.Faults.TakeTransientFailure(cfg.Name(), b.Abbr)
		}
		if err == nil {
			res, err = nuba.Run(ctx, cfg, b, opts...)
		}
		if err == nil || attempts > r.opts.Retries || !transient(err) || ctx.Err() != nil {
			return res, attempts, err
		}
		// Bounded backoff before the next attempt: base * attempt,
		// capped, aborted promptly on cancellation.
		d := r.opts.RetryBackoff
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		d *= time.Duration(attempts)
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		select {
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		case <-time.After(d):
		}
	}
}

// transient reports whether err is marked retryable via a
// `Transient() bool` method anywhere in its chain.
func transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// recordFailureLocked files a terminal job failure (r.mu held).
func (r *Runner) recordFailureLocked(key string, cfg *nuba.Config, b workload.Benchmark, err error, attempts int) {
	if _, ok := r.failures[key]; ok {
		return
	}
	jf := JobFailure{
		Config:      cfg.Name(),
		Fingerprint: cfg.Fingerprint(),
		Bench:       b.Abbr,
		Err:         err.Error(),
		Attempts:    attempts,
	}
	var pe *nuba.PanicError
	if errors.As(err, &pe) {
		jf.Panic = true
		jf.Stack = string(pe.Stack)
	}
	r.failures[key] = jf
}

// Failures returns the terminally failed jobs, sorted by configuration
// then benchmark (deterministic regardless of worker interleaving).
func (r *Runner) Failures() []JobFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobFailure, 0, len(r.failures))
	for _, k := range sortedKeys(r.failures) {
		out = append(out, r.failures[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// failedBenches returns the benchmark abbreviations with at least one
// terminal failure on any configuration.
func (r *Runner) failedBenches() map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]bool)
	for _, k := range sortedKeys(r.failures) {
		m[r.failures[k].Bench] = true
	}
	return m
}

// failureCount returns the number of terminally failed jobs so far.
func (r *Runner) failureCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failures)
}

// scaled applies the Runner's GPU scale to a configuration.
func (r *Runner) scaled(cfg nuba.Config) nuba.Config {
	if r.opts.Scale != 1 {
		cfg = cfg.Scale(r.opts.Scale)
	}
	return cfg
}

// The four headline iso-resource configurations of Section 7.
func (r *Runner) isoConfigs() map[string]nuba.Config {
	ubaMem := r.scaled(nuba.Baseline())
	ubaSM := r.scaled(nuba.SMSideConfig())
	noRep := r.scaled(nuba.NUBAConfig())
	noRep.Replication = nuba.NoRep
	full := r.scaled(nuba.NUBAConfig())
	return map[string]nuba.Config{
		"UBA-mem":     ubaMem,
		"UBA-SM":      ubaSM,
		"NUBA-No-Rep": noRep,
		"NUBA":        full,
	}
}

// speedupPct returns (base/cand - 1) * 100.
func speedupPct(cand, base *nuba.Result) float64 {
	if cand.Stats.Cycles == 0 {
		return 0
	}
	return (float64(base.Stats.Cycles)/float64(cand.Stats.Cycles) - 1) * 100
}

// summarize computes the paper-style harmonic-mean improvement for a set
// of per-benchmark speedups (given as multiplicative speedups).
func summarize(speedups []float64) float64 {
	return (metrics.HarmonicMeanSpeedup(speedups) - 1) * 100
}

// groupSummary renders Low/High/All harmonic-mean improvements.
func groupSummary(b *strings.Builder, label string, low, high []float64) {
	all := append(append([]float64{}, low...), high...)
	fmt.Fprintf(b, "%s: low-sharing %+.1f%%  high-sharing %+.1f%%  all %+.1f%%\n",
		label, summarize(low), summarize(high), summarize(all))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func mbs(x float64) string { return fmt.Sprintf("%.2f MB", x) }

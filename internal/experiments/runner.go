// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulator. An experiment declares its
// configurations once (Experiment.Configs); its job plan is those
// configurations crossed with the runner's benchmarks; the worker pool
// simulates the plan into a memo cache; and a renderer then returns the
// experiment's figure, its table and summary numbers, from the finished
// runs alone, for one printer to put in the shape the paper reports.
// Renderers simulate nothing, so the output is byte-identical for any
// worker count, and figures sharing runs (fig7/8/9/13 all reuse the
// iso-resource runs) never recompute. See DESIGN.md §6.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Options configure a Runner.
type Options struct {
	// Benchmarks restricts the workload set (default: the full suite).
	Benchmarks []workload.Benchmark
	// Scale scales every declared configuration's GPU size (1.0 = the
	// 64-SM baseline); fig14-size and fig16 compose their own factors
	// with it.
	Scale float64
	// Jobs is the worker-pool size used to execute an experiment's job
	// set; zero or negative selects runtime.GOMAXPROCS(0).
	Jobs int
	// OnEvent, when non-nil, receives a structured Event per simulated
	// job, finished or failed (its counters and the batch's counts).
	// Calls are serialized. ProgressPrinter is the sink the CLIs pass.
	OnEvent func(Event)
	// Arm, when non-nil, is asked per job for a nuba.WithArm hook to run
	// on that job's assembled system (nil = none). The stress tests
	// inject faults through it (docs/ROBUSTNESS.md); production sweeps
	// leave it nil.
	Arm func(cfgName, bench string) func(*nuba.System) error
}

// JobFailure records one job that could not be simulated: the failing
// configuration and benchmark, the error, the full hang report if the
// watchdog ended it, and whether it was a recovered panic (with the
// stack). The slice of these is the report's explicit failures section —
// the schema is documented in docs/ROBUSTNESS.md.
type JobFailure struct {
	// Config is the configuration's display name.
	Config string
	// Bench is the benchmark abbreviation.
	Bench string
	// Err is the run's error text: one line, also for a hang.
	Err string
	// Hang is the rendered multi-line nuba.HangReport of a job the
	// watchdog ended, empty otherwise. The failures section carries only
	// Err; the command-line tools print Hang on stderr.
	Hang string
	// Panic reports whether the failure was a recovered simulator
	// panic; Stack then holds the panicking goroutine's stack.
	Panic bool
	Stack string
}

// Report is a rendered experiment plus those of its jobs that could not
// be simulated. A non-empty Failures means Text is a partial report: the
// failed benchmarks are excluded from every table and listed in the
// trailing failures section instead.
type Report struct {
	Text     string
	Failures []JobFailure
	fig      figure // what Text prints
}

// Runner executes experiments, memoizing runs shared between figures
// (fig7/fig8/fig9/fig13 all reuse the iso-resource runs). All methods are
// safe for concurrent use; a run requested by several callers simulates
// exactly once.
type Runner struct {
	opts Options

	mu      sync.Mutex
	cache   map[string]*cacheEntry
	planned int // jobs scheduled across Execute/Prefetch calls
	done    int // jobs simulated, finished or failed
}

// cacheEntry is one job's slot in the memo cache: admit creates it, the
// worker that simulates the job fills res/err and closes ready, and
// everyone else waits on ready before reading.
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
	return &Runner{opts: opts, cache: make(map[string]*cacheEntry)}
}

// Experiment is a named reproduction of one paper artifact.
type Experiment struct {
	Name  string
	Title string
	// Configs declares, once and at scale 1, every configuration the
	// experiment simulates; the job plan and the renderer's view both
	// derive from it, with Options.Scale applied. Nil for experiments
	// that need no simulation (table2).
	Configs func() []nuba.Config
	// render returns the figure of the experiment's finished runs.
	render func(v *view) (figure, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{Name: "table2", Title: "Table 2: benchmark suite and footprints", render: table2},
		{Name: "fig3", Title: "Figure 3: memory page sharing degree", Configs: fig3Configs, render: fig3},
		{Name: "fig7", Title: "Figure 7: iso-resource speedup over UBA", Configs: isoConfigs, render: fig7},
		{Name: "fig8", Title: "Figure 8: perceived bandwidth (replies/cycle)", Configs: isoConfigs, render: fig8},
		{Name: "fig9", Title: "Figure 9: L1 miss breakdown (local/remote)", Configs: isoConfigs, render: fig9},
		{Name: "fig10", Title: "Figure 10: performance vs NoC power", Configs: fig10Configs, render: fig10},
		{Name: "fig11", Title: "Figure 11: page allocation policies", Configs: fig11Configs, render: fig11},
		{Name: "fig12", Title: "Figure 12: data replication policies", Configs: fig12Configs, render: fig12},
		{Name: "fig13", Title: "Figure 13: GPU energy breakdown", Configs: isoConfigs, render: fig13},
		{Name: "fig14-size", Title: "Figure 14: GPU size sensitivity", Configs: fig14Size.configs, render: fig14Size.render},
		{Name: "fig14-partition", Title: "Figure 14: LLC slices per partition", Configs: fig14Partition.configs, render: fig14Partition.render},
		{Name: "fig14-llc", Title: "Figure 14: LLC capacity sensitivity", Configs: fig14LLC.configs, render: fig14LLC.render},
		{Name: "fig14-page", Title: "Figure 14: page size sensitivity", Configs: fig14Page.configs, render: fig14Page.render},
		{Name: "fig14-addrmap", Title: "Figure 14: PAE address mapping", Configs: fig14AddrMapConfigs, render: fig14AddrMap},
		{Name: "fig14-lab", Title: "Figure 14: LAB threshold sensitivity", Configs: fig14LABConfigs, render: fig14LAB},
		{Name: "fig16", Title: "Figure 16: MCM-GPU", Configs: fig16Configs, render: fig16},
		{Name: "alt-placement", Title: "Section 7.6: migration / page replication", Configs: altConfigs, render: altPlacement},
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

// SuiteOn returns the experiment behind nubasim's multi-benchmark mode:
// the runner's benchmarks on the one configuration cfg, rendered as a
// compact counter table in input order. It is built per call, so it is
// not in All().
func SuiteOn(cfg nuba.Config) Experiment {
	return Experiment{
		Name:    "suite",
		Title:   "Benchmarks on " + cfg.Name(),
		Configs: func() []nuba.Config { return []nuba.Config{cfg} },
		render:  suiteTable,
	}
}

func suiteTable(v *view) (figure, error) {
	var f figure
	f.line("%-8s %-12s %-8s %-10s %-8s %-8s\n", "Bench", "Cycles", "IPC", "Replies/c", "L1miss", "Local")
	for i, bench := range v.benches {
		st := v.res[i][0].Stats
		f.line("%-8s %-12d %-8.3f %-10.3f %-8.3f %-8.3f\n",
			bench.Abbr, st.Cycles, st.IPC(), st.RepliesPerCycle(), st.L1MissRate(), st.LocalFraction())
	}
	return f, nil
}

// figure is what a renderer returns: a table, fig7's chart, and summary
// lines whose every number is a named scalar, in print order. String is
// the one place a figure becomes text.
type figure struct {
	table   *metrics.Table
	chart   *metrics.BarChart
	scalars []scalar
	lines   []line // each printed as fmt.Fprintf(w, format, args...)
}

type line struct {
	format string
	args   []any
}

// A scalar prints with its verb, and as n/a when NaN: a mean over no
// benchmark, such as an empty sharing class.
type scalar struct {
	name, verb string
	value      float64
}

const improvement = "%+.1f%%" // the verb of a signed improvement percentage

func (s scalar) String() string {
	if math.IsNaN(s.value) {
		return "n/a"
	}
	return fmt.Sprintf(s.verb, s.value)
}

// paper is the paper's own result, printed beside the simulator's.
type paper string

func (p paper) String() string { return "(paper: " + string(p) + ")" }

// add records a scalar and returns it for a line or a table cell.
func (f *figure) add(name string, value float64, verb string) scalar {
	f.scalars = append(f.scalars, scalar{name, verb, value})
	return f.scalars[len(f.scalars)-1]
}

func (f *figure) line(format string, args ...any) { f.lines = append(f.lines, line{format, args}) }

// classes adds name's harmonic-mean improvements of configuration cand over
// base on the low-sharing, the high-sharing and all benchmarks, as the
// scalars name/low, name/high and name/all.
func (f *figure) classes(name string, v *view, cand, base int) (low, high, all scalar) {
	var lo, hi []float64
	for i, row := range v.res {
		if s := nuba.Speedup(row[cand], row[base]); v.benches[i].High {
			hi = append(hi, s)
		} else {
			lo = append(lo, s)
		}
	}
	return f.add(name+"/low", hmean(lo), improvement), f.add(name+"/high", hmean(hi), improvement),
		f.add(name+"/all", hmean(append(lo, hi...)), improvement)
}

// group adds label's class improvements as one line.
func (f *figure) group(label string, v *view, cand, base int) {
	low, high, all := f.classes(strings.Join(strings.Fields(label), " "), v, cand, base)
	f.line("%s: low-sharing %s  high-sharing %s  all %s\n", label, low, high, all)
}

func (f *figure) String() string {
	var b strings.Builder
	if f.table != nil {
		b.WriteString(f.table.String())
	}
	if f.chart != nil {
		b.WriteByte('\n')
		b.WriteString(f.chart.String())
	}
	for _, l := range f.lines {
		fmt.Fprintf(&b, l.format, l.args...)
	}
	return b.String()
}

// speedups returns each benchmark's speedup of configuration cand over base.
func (v *view) speedups(cand, base int) []float64 {
	out := make([]float64, len(v.res))
	for i, row := range v.res {
		out[i] = nuba.Speedup(row[cand], row[base])
	}
	return out
}

// hmean returns the paper-style harmonic-mean improvement, in percent, of
// per-benchmark multiplicative speedups, or NaN for none.
func hmean(speedups []float64) float64 {
	if len(speedups) == 0 {
		return math.NaN()
	}
	return (metrics.HarmonicMeanSpeedup(speedups) - 1) * 100
}

func class(b workload.Benchmark) string {
	if b.High {
		return "high"
	}
	return "low"
}

// gain prints a speedup as a signed improvement percentage.
func gain(ratio float64) string { return fmt.Sprintf(improvement, (ratio-1)*100) }
func f3(x float64) string       { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string       { return fmt.Sprintf("%.2f", x) }

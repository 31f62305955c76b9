package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/energy"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// size holds the inputs that differ between the measured benchmark and
// the smoke test.
type size struct {
	scale       float64
	streamGrid  int
	atomicGrid  int
	sparseIters int
	sweep       []string
	sweepGrid   int
}

// fullSize is what BENCHMARK.json's numbers are measured at; smokeSize
// keeps the smoke test (go test in this directory) within seconds.
var (
	fullSize  = size{scale: 0.25, streamGrid: 256, atomicGrid: 96, sparseIters: 8192, sweep: []string{"DWT2D", "LEU"}, sweepGrid: 128}
	smokeSize = size{scale: 0.125, streamGrid: 64, atomicGrid: 32, sparseIters: 256, sweep: []string{"AN"}, sweepGrid: 64}
)

// outcome is what one operation — one complete simulation, or one Runner
// lifetime for the sweep — reports back to the harness.
type outcome struct {
	// sims is the number of simulations attempted (16 for a sweep rep).
	sims int
	// cycles is the simulated cycle count, summed over jobs.
	cycles int64
	// digest identifies the simulated statistics exactly.
	digest uint64
	// faults lists violated checks, one failed operation each.
	faults []string
	// stats are the run's counters; nil for the sweep, whose per-job
	// statistics stay inside the Runner.
	stats *nuba.Stats
	// instrs is the warp-instruction count, summed over jobs.
	instrs int64
	// gap is fig7_gap_pts; -1 where the workload yields none.
	gap float64
}

// bench is one workload: how to set it up, run one operation through the
// public entry points, run the reference, and re-run one operation step
// by step with a span around each layer call.
type bench interface {
	name() string
	// threads is how many cores one operation keeps busy.
	threads() int
	// setup does what the harness needs before the first timed rep:
	// benchmark lookup, kernel parse, config build, and one page-in run
	// of a 1-CTA kernel.
	setup(ctx context.Context) error
	rep(ctx context.Context) outcome
	// reference runs the operation under the naive engine, the reference
	// loop; ok is false where the workload has none.
	reference(ctx context.Context) (o outcome, ok bool)
	traced(ctx context.Context, sp *spanLog, parent int) outcome
}

var workloadOrder = []string{"stream_nuba", "stream_uba", "shared_mdr", "atomic_remote", "idle_sparse", "sweep_iso"}

func workloadNames() []string { return append([]string(nil), workloadOrder...) }

func newWorkload(name string, sz size) (bench, error) {
	nubaCfg := nuba.NUBAConfig().Scale(sz.scale)
	switch name {
	case "stream_nuba":
		return &single{id: name, cfg: nubaCfg, abbr: "LBM", grid: sz.streamGrid}, nil
	case "stream_uba":
		return &single{id: name, cfg: nuba.Baseline().Scale(sz.scale), abbr: "LBM", grid: sz.streamGrid}, nil
	case "shared_mdr":
		return &single{id: name, cfg: nubaCfg, abbr: "AN"}, nil
	case "atomic_remote":
		return &single{id: name, cfg: nubaCfg, abbr: "SM", grid: sz.atomicGrid}, nil
	case "idle_sparse":
		return &single{id: name, cfg: nubaCfg, sparseIters: sz.sparseIters}, nil
	case "sweep_iso":
		return &sweep{scale: sz.scale, abbrs: sz.sweep, grid: sz.sweepGrid}, nil
	case "":
		return nil, fmt.Errorf("-workload is required: one of %s", strings.Join(workloadOrder, ", "))
	}
	return nil, fmt.Errorf("unknown workload %q: one of %s", name, strings.Join(workloadOrder, ", "))
}

// sparseSrc is the SPARSE kernel of the root package's bench_test.go: a
// latency-bound chain of thread-invariant cold loads, one uncached line
// per iteration, so each warp sleeps through a full memory round trip per
// iteration and all but two SMs have no work at all.
const sparseSrc = `
.kernel sparse
.param .ptr A
.param .u64 k
.param .u64 n
  mov r1, %ctaid
  mov r4, 0
  mov r5, 0
loop:
  mad r6, r4, n, r1
  shl r6, r6, 7
  ld.global.u64 r7, [A + r6]
  add r5, r5, r7
  add r4, r4, 1
  setp.lt p0, r4, k
  @p0 bra loop
  shl r8, r1, 3
  st.global.u64 [A + r8], r5
  exit
`

const (
	// sparseGrid is the SPARSE launch: two 32-thread CTAs.
	sparseGrid = 2
	// pageInIters is the load-chain length of SPARSE's page-in run.
	pageInIters = 64
)

// sparseBenchmark wraps the SPARSE launch as a Benchmark so it runs
// through nuba.Run like the suite entries.
func sparseBenchmark(iters int) (nuba.Benchmark, error) {
	kernel, err := nuba.ParseKernel(sparseSrc)
	if err != nil {
		return nuba.Benchmark{}, err
	}
	return nuba.Benchmark{
		Name: "Sparse", Abbr: "SPARSE",
		Build: func(alloc workload.Alloc) ([]*nuba.Launch, error) {
			bytes := uint64(iters) * sparseGrid * 128
			l := &nuba.Launch{
				Kernel:     kernel,
				GridDim:    sparseGrid,
				CTAThreads: 32,
				Scalars:    []int64{int64(iters), sparseGrid},
				Buffers:    []nuba.Binding{{Base: alloc(bytes), Size: bytes}},
			}
			return []*nuba.Launch{l}, l.Validate()
		},
	}, nil
}

// withGrid returns b with every launch cut to grid CTAs: the same kernel
// and buffers, fewer CTAs.
func withGrid(b nuba.Benchmark, grid int) nuba.Benchmark {
	build := b.Build
	b.Build = func(alloc workload.Alloc) ([]*nuba.Launch, error) {
		launches, err := build(alloc)
		for _, l := range launches {
			l.GridDim = min(grid, l.GridDim)
		}
		return launches, err
	}
	return b
}

// single is a workload of one simulation per operation.
type single struct {
	id   string
	cfg  nuba.Config
	abbr string
	// grid, when positive, cuts the benchmark's launches to that many CTAs.
	grid int
	// sparseIters, when positive, selects the SPARSE kernel instead of a
	// suite benchmark.
	sparseIters int

	b nuba.Benchmark
}

func (s *single) name() string { return s.id }
func (s *single) threads() int { return 1 }

func (s *single) setup(ctx context.Context) error {
	var err error
	if s.sparseIters > 0 {
		s.b, err = sparseBenchmark(s.sparseIters)
	} else {
		s.b, err = nuba.BenchmarkByAbbr(s.abbr)
	}
	if err != nil {
		return err
	}
	if s.grid > 0 {
		s.b = withGrid(s.b, s.grid)
	}
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	pageIn := s.b
	if s.sparseIters > 0 {
		// One SPARSE CTA is half the workload; page in on a short chain.
		if pageIn, err = sparseBenchmark(min(s.sparseIters, pageInIters)); err != nil {
			return err
		}
	}
	_, err = nuba.Run(ctx, s.cfg, withGrid(pageIn, 1))
	return err
}

func (s *single) rep(ctx context.Context) outcome {
	return s.run(ctx)
}

func (s *single) reference(ctx context.Context) (outcome, bool) {
	return s.run(ctx, nuba.WithEngine(nuba.EngineNaive)), true
}

func (s *single) run(ctx context.Context, opts ...nuba.RunOption) outcome {
	res, err := nuba.Run(ctx, s.cfg, s.b, opts...)
	if err != nil {
		return outcome{sims: 1, gap: -1, faults: []string{fmt.Sprintf("%s: %v", s.id, err)}}
	}
	return singleOutcome(s.id, res.Stats, res.System.HitMaxCycles())
}

// traced repeats what nuba.Run does, one public function at a time.
func (s *single) traced(ctx context.Context, sp *spanLog, parent int) outcome {
	failed := func(err error) outcome {
		return outcome{sims: 1, gap: -1, faults: []string{fmt.Sprintf("%s (traced): %v", s.id, err)}}
	}
	id := sp.begin("core.new_s", parent)
	sys, err := nuba.NewSystem(s.cfg)
	sp.end(id)
	if err != nil {
		return failed(err)
	}
	id = sp.begin("workload.build_s", parent)
	launches, err := s.b.Build(sys.NewBuffer)
	sp.end(id)
	if err != nil {
		return failed(err)
	}
	id = sp.begin("core.exec_s", parent)
	err = sys.RunProgramContext(ctx, launches)
	sp.end(id)
	if err != nil {
		return failed(err)
	}
	id = sp.begin("energy.collect_s", parent)
	sys.EnergyBreakdown(energy.DefaultParams())
	sp.end(id)
	return singleOutcome(s.id, sys.Stats(), sys.HitMaxCycles())
}

func singleOutcome(id string, st *nuba.Stats, hitMax bool) outcome {
	o := outcome{sims: 1, cycles: st.Cycles, instrs: st.Instructions, digest: statsDigest(st), stats: st, gap: -1}
	if faults := invariantFaults(st, hitMax); len(faults) > 0 {
		o.faults = []string{id + ": " + strings.Join(faults, "; ")}
	}
	return o
}

// invariantFaults checks the conservation laws every completed run
// obeys. Hits plus misses bound accesses from below rather than equal
// them: both cache levels count a store as an access and as neither a hit
// nor a miss.
func invariantFaults(st *nuba.Stats, hitMax bool) []string {
	var f []string
	if hitMax {
		f = append(f, "hit MaxCycles")
	}
	if st.L1Hits < 0 || st.L1Misses < 0 || st.L1Hits+st.L1Misses > st.L1Accesses {
		f = append(f, fmt.Sprintf("L1 hits %d + misses %d exceed accesses %d", st.L1Hits, st.L1Misses, st.L1Accesses))
	}
	if st.LLCHits < 0 || st.LLCMisses < 0 || st.LLCHits+st.LLCMisses > st.LLCAccesses {
		f = append(f, fmt.Sprintf("LLC hits %d + misses %d exceed accesses %d", st.LLCHits, st.LLCMisses, st.LLCAccesses))
	}
	if st.Instructions <= 0 {
		f = append(f, "no instructions executed")
	}
	return f
}

// sweep is the design-space-sweep workload: one operation is one Runner
// lifetime — fig7 executed across the worker pool, then fig8 and fig9
// rendered from the warm memo.
type sweep struct {
	scale float64
	abbrs []string
	// grid cuts every benchmark's launches to that many CTAs.
	grid int

	benches []nuba.Benchmark
}

// sweepFigures are executed in this order; only the first simulates.
var sweepFigures = []string{"fig7", "fig8", "fig9"}

func (s *sweep) name() string { return "sweep_iso" }
func (s *sweep) threads() int { return runtime.GOMAXPROCS(0) }

func (s *sweep) setup(ctx context.Context) error {
	s.benches = s.benches[:0]
	cfg := nuba.NUBAConfig().Scale(s.scale)
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, abbr := range s.abbrs {
		b, err := nuba.BenchmarkByAbbr(abbr)
		if err != nil {
			return err
		}
		s.benches = append(s.benches, withGrid(b, s.grid))
		if _, err := nuba.Run(ctx, cfg, withGrid(b, 1)); err != nil {
			return err
		}
	}
	return nil
}

// jobs is the number of simulations one sweep operation attempts: the
// four iso-resource configurations over every benchmark.
func (s *sweep) jobs() int { return 4 * len(s.benches) }

// sweepRun is one Runner with the events it reported.
type sweepRun struct {
	r      *experiments.Runner
	events []experiments.Event
}

func (s *sweep) newRun() *sweepRun {
	run := &sweepRun{}
	run.r = experiments.NewRunner(experiments.Options{
		Scale:      s.scale,
		Jobs:       s.threads(),
		Benchmarks: s.benches,
		// The Runner serializes OnEvent calls.
		OnEvent: func(ev experiments.Event) { run.events = append(run.events, ev) },
	})
	return run
}

// render executes the sweep's figures and folds reports and events into
// an outcome. After a Prefetch of fig7's plan every Execute only renders.
func (s *sweep) render(ctx context.Context, run *sweepRun) outcome {
	o := outcome{sims: s.jobs(), gap: -1}
	h := fnv.New64a()
	for _, name := range sweepFigures {
		e, err := experiments.ByName(name)
		if err != nil {
			o.faults = append(o.faults, err.Error())
			continue
		}
		rep, err := run.r.Execute(ctx, e)
		if err != nil {
			o.faults = append(o.faults, fmt.Sprintf("sweep_iso %s: %v", name, err))
			continue
		}
		for _, f := range rep.Failures {
			o.faults = append(o.faults, fmt.Sprintf("sweep_iso %s: %s on %s: %s", name, f.Bench, f.Config, f.Err))
		}
		fmt.Fprintf(h, "%s\n%s\n", name, rep.Text)
		if name == "fig7" {
			gap, err := fig7Gap(rep.Text)
			if err != nil {
				o.faults = append(o.faults, "sweep_iso fig7: "+err.Error())
			}
			o.gap = gap
		}
	}
	if len(run.events) != s.jobs() {
		o.faults = append(o.faults, fmt.Sprintf("sweep_iso: %d of %d jobs completed", len(run.events), s.jobs()))
	}
	// Events arrive in completion order; sort for a stable digest.
	lines := make([]string, 0, len(run.events))
	for _, ev := range run.events {
		o.cycles += ev.Cycles
		instrs := int64(ev.IPC*float64(ev.Cycles) + 0.5)
		o.instrs += instrs
		lines = append(lines, fmt.Sprintf("%s|%s|%d|%d", ev.Config, ev.Bench, ev.Cycles, instrs))
		if ev.Cycles <= 0 || instrs <= 0 {
			o.faults = append(o.faults, fmt.Sprintf("sweep_iso: %s on %s ran %d cycles, %d instructions", ev.Bench, ev.Config, ev.Cycles, instrs))
		}
	}
	sort.Strings(lines)
	fmt.Fprintln(h, strings.Join(lines, "\n"))
	o.digest = h.Sum64()
	return o
}

func (s *sweep) rep(ctx context.Context) outcome {
	return s.render(ctx, s.newRun())
}

func (s *sweep) reference(context.Context) (outcome, bool) { return outcome{}, false }

func (s *sweep) traced(ctx context.Context, sp *spanLog, parent int) outcome {
	run := s.newRun()
	fig7, err := experiments.ByName(sweepFigures[0])
	if err != nil {
		return outcome{sims: s.jobs(), gap: -1, faults: []string{err.Error()}}
	}
	id := sp.begin("experiments.prefetch_s", parent)
	err = run.r.Prefetch(ctx, fig7.Plan(run.r))
	sp.end(id)
	if err != nil {
		return outcome{sims: s.jobs(), gap: -1, faults: []string{"sweep_iso prefetch: " + err.Error()}}
	}
	id = sp.begin("experiments.render_s", parent)
	o := s.render(ctx, run)
	sp.end(id)
	return o
}

package nuba_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md's experiment index). Each bench
// regenerates its artifact through the same experiment recipes the
// cmd/nubasweep tool uses and logs the resulting rows, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation in miniature. To keep the default bench
// run tractable, benches use a 16-SM (0.25x) GPU and a three-benchmark
// core subset — LBM (streaming, low-sharing), AN (compute-dense stencil)
// and BT (high-sharing irregular tree), one representative per workload
// class; run cmd/nubasweep or cmd/nubareport for the full-scale 64-SM,
// 29-benchmark numbers. Setting the environment variable NUBA_BENCH_FULL=1
// (any non-empty value) switches the benches to the full-scale 64-SM GPU
// while keeping the three-benchmark subset.

import (
	"context"
	"os"
	"testing"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// benchOptions returns the Runner options used by the benches.
func benchOptions(b *testing.B) experiments.Options {
	scale := 0.25
	if os.Getenv("NUBA_BENCH_FULL") != "" {
		scale = 1
	}
	subset := []string{"LBM", "AN", "BT"}
	var benches []workload.Benchmark
	for _, abbr := range subset {
		wb, err := workload.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		benches = append(benches, wb)
	}
	return experiments.Options{Scale: scale, Benchmarks: benches}
}

// runExperiment executes the named experiment b.N times, logging the
// last report.
func runExperiment(b *testing.B, name string) {
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var report string
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions(b))
		report, err = e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + report)
}

// BenchmarkTable2Workloads regenerates Table 2 (the suite inventory).
func BenchmarkTable2Workloads(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig3SharingDegree regenerates Figure 3 (page sharing degree).
func BenchmarkFig3SharingDegree(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig7IsoResource regenerates Figure 7 (iso-resource speedups).
func BenchmarkFig7IsoResource(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8PerceivedBandwidth regenerates Figure 8 (replies/cycle).
func BenchmarkFig8PerceivedBandwidth(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9MissBreakdown regenerates Figure 9 (local/remote misses).
func BenchmarkFig9MissBreakdown(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10NoCPower regenerates Figure 10 (performance vs NoC power).
func BenchmarkFig10NoCPower(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11PageAllocation regenerates Figure 11 (FT vs RR vs LAB).
func BenchmarkFig11PageAllocation(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Replication regenerates Figure 12 (No/Full/MDR).
func BenchmarkFig12Replication(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Energy regenerates Figure 13 (energy breakdown).
func BenchmarkFig13Energy(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14GPUSize regenerates the Figure 14 GPU-size sweep.
func BenchmarkFig14GPUSize(b *testing.B) { runExperiment(b, "fig14-size") }

// BenchmarkFig14Partition regenerates the Figure 14 partition-ratio sweep.
func BenchmarkFig14Partition(b *testing.B) { runExperiment(b, "fig14-partition") }

// BenchmarkFig14LLCCapacity regenerates the Figure 14 LLC-capacity sweep.
func BenchmarkFig14LLCCapacity(b *testing.B) { runExperiment(b, "fig14-llc") }

// BenchmarkFig14PageSize regenerates the Figure 14 page-size sweep.
func BenchmarkFig14PageSize(b *testing.B) { runExperiment(b, "fig14-page") }

// BenchmarkFig14AddressMapping regenerates the Figure 14 PAE comparison.
func BenchmarkFig14AddressMapping(b *testing.B) { runExperiment(b, "fig14-addrmap") }

// BenchmarkFig14LABThreshold regenerates the Figure 14 LAB-threshold sweep.
func BenchmarkFig14LABThreshold(b *testing.B) { runExperiment(b, "fig14-lab") }

// BenchmarkFig16MCM regenerates Figure 16 (MCM-GPU).
func BenchmarkFig16MCM(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkAltPagePlacement regenerates the §7.6 comparison (migration and
// page replication against LAB).
func BenchmarkAltPagePlacement(b *testing.B) { runExperiment(b, "alt-placement") }

// BenchmarkSingleRunNUBA measures the simulator itself: one SGEMM run on
// the scaled NUBA GPU (simulated-cycles-per-second throughput).
func BenchmarkSingleRunNUBA(b *testing.B) {
	bench, err := nuba.BenchmarkByAbbr("SGEMM")
	if err != nil {
		b.Fatal(err)
	}
	cfg := nuba.NUBAConfig().Scale(0.25)
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := nuba.Run(context.Background(), cfg, bench)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
}

// sparseSrc is the idle-heavy showcase kernel: a latency-bound chain of
// thread-invariant cold loads — one uncached line per iteration, the
// next iteration serialized behind the reply by the load-to-use
// dependency on r7 — so each warp sleeps through a full memory round
// trip per iteration. Launched as two 32-thread CTAs it leaves all but
// two SMs without work — the regime the idle-skip engine exists for (a
// small kernel on a big configured GPU, the shape of most design-space
// sweep jobs), where the naive loop still ticks every component every
// cycle.
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

// sparseLaunch builds the SPARSE workload: grid 32-thread CTAs, k
// dependent 128 B-strided cold loads per CTA.
func sparseLaunch(kernel *nuba.Kernel, grid, iters int) func(sys *nuba.System) ([]*nuba.Launch, error) {
	return func(sys *nuba.System) ([]*nuba.Launch, error) {
		size := uint64(iters) * uint64(grid) * 128
		l := &nuba.Launch{
			Kernel:     kernel,
			GridDim:    grid,
			CTAThreads: 32,
			Scalars:    []int64{int64(iters), int64(grid)},
			Buffers:    []nuba.Binding{{Base: sys.NewBuffer(size), Size: size}},
		}
		return []*nuba.Launch{l}, nil
	}
}

// BenchmarkEngineThroughput measures raw simulator throughput — the
// committed perf trajectory behind BENCH_<n>.json (see docs/PERF.md).
// One sub-benchmark per (workload, engine) pair: the three-benchmark
// core subset plus SPARSE, the synthetic low-occupancy workload above;
// cmd/nubabench turns the emitted metrics into ns/simulated-cycle and
// simulated-cycles-per-second, so the naive/hybrid ratio is the
// idle-skip engine's speedup on that workload.
func BenchmarkEngineThroughput(b *testing.B) {
	scale := 0.25
	if os.Getenv("NUBA_BENCH_FULL") != "" {
		scale = 1
	}
	runOnce := func(b *testing.B, bench nuba.Benchmark, opts ...nuba.RunOption) {
		cfg := nuba.NUBAConfig().Scale(scale)
		var cycles, instrs int64
		for i := 0; i < b.N; i++ {
			res, err := nuba.Run(context.Background(), cfg, bench, opts...)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Stats.Cycles
			instrs = res.Stats.Instructions
		}
		b.ReportMetric(float64(cycles), "simcycles/run")
		b.ReportMetric(float64(instrs), "siminstrs/run")
	}
	engines := []nuba.Engine{nuba.EngineHybrid, nuba.EngineNaive}
	for _, abbr := range []string{"LBM", "AN", "BT"} {
		bench, err := nuba.BenchmarkByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range engines {
			b.Run(abbr+"/"+engine.String(), func(b *testing.B) {
				runOnce(b, bench, nuba.WithEngine(engine))
			})
		}
	}
	sparse, err := nuba.ParseKernel(sparseSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range engines {
		b.Run("SPARSE/"+engine.String(), func(b *testing.B) {
			cfg := nuba.NUBAConfig().Scale(scale)
			var cycles, instrs int64
			for i := 0; i < b.N; i++ {
				res, err := nuba.Run(context.Background(), cfg, nuba.Benchmark{},
					nuba.WithEngine(engine), nuba.WithLaunches(sparseLaunch(sparse, 2, 512)))
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
				instrs = res.Stats.Instructions
			}
			b.ReportMetric(float64(cycles), "simcycles/run")
			b.ReportMetric(float64(instrs), "siminstrs/run")
		})
	}
}

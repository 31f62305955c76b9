// Command nubasim runs one or more benchmarks on one GPU configuration
// and prints the measured statistics — the quickest way to poke at the
// simulator. With several benchmarks (comma-separated, or "all" for the
// full Table 2 suite) the runs are one batch on the experiment runner's
// worker pool (-jobs) and print a compact per-benchmark table in input
// order; a benchmark that fails costs its row, not the table.
//
// Usage:
//
//	nubasim -arch nuba -bench SGEMM
//	nubasim -arch uba -bench LBM -noc 700 -placement rr -replication none
//	nubasim -arch nuba -bench all -jobs 8
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/hostprof"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so deferred work — closing the output,
// finishing the profiles — happens on every path out.
func run() int {
	prof := hostprof.Flags(flag.CommandLine)
	arch := flag.String("arch", "nuba", "architecture: "+nuba.ArchUsage())
	bench := flag.String("bench", "SGEMM", "benchmark abbreviation(s), comma-separated, or 'all' (see nubasweep -list)")
	nocGBs := flag.Float64("noc", 1400, "NoC bandwidth in GB/s")
	placement := flag.String("placement", "", "page placement: "+nuba.PlacementUsage()+" (default: arch default)")
	replication := flag.String("replication", "", "replication: "+nuba.ReplicationUsage()+" (default: arch default)")
	scale := flag.Float64("scale", 1, "GPU scale factor")
	pae := flag.Bool("pae", false, "use the PAE address mapping")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "benchmarks to simulate in parallel (1 = serial)")
	verbose := flag.Bool("v", false, "on stderr: per-run progress (multi-benchmark mode) or the cycle loop's own counters (one benchmark)")
	traceOn := flag.Bool("trace", false, "emit an NDJSON epoch trace and a Chrome trace (docs/OBSERVABILITY.md)")
	traceOut := flag.String("trace-out", "trace", "trace output path prefix; writes <prefix>.ndjson and <prefix>.trace.json (multi-benchmark runs insert the benchmark abbreviation)")
	traceEpoch := flag.Int64("trace-epoch", 0, "trace sampling interval in cycles (0 = the config's MDR epoch)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "nubasim:", err)
		return 2
	}
	defer prof.Stop()

	if err := nuba.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "nubasim:", err)
		return 2
	}

	a, err := nuba.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubasim:", err)
		return 2
	}
	cfg := nuba.Baseline().WithArch(a).WithNoC(*nocGBs).Scale(*scale)
	cfg.Seed = *seed
	if *pae {
		cfg.AddressMap = nuba.PAE
	}
	if *placement != "" {
		if cfg.Placement, err = nuba.ParsePlacement(*placement); err != nil {
			fmt.Fprintln(os.Stderr, "nubasim:", err)
			return 2
		}
	}
	if *replication != "" {
		if cfg.Replication, err = nuba.ParseReplication(*replication); err != nil {
			fmt.Fprintln(os.Stderr, "nubasim:", err)
			return 2
		}
	}

	benches, err := nuba.ParseBenchmarks(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubasim:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tr := traceArgs{on: *traceOn, out: *traceOut, epoch: *traceEpoch}
	switch {
	case len(benches) == 1:
		err = runOne(ctx, cfg, benches[0], tr, *verbose)
	case tr.on:
		// A traced suite is a debugging run, not a throughput one: one
		// benchmark after another, each with its own pair of files.
		for _, b := range benches {
			btr := tr
			btr.out = tr.out + "." + b.Abbr
			if err = runOne(ctx, cfg, b, btr, false); err != nil {
				break
			}
		}
	default:
		opts := experiments.Options{Benchmarks: benches, Jobs: *jobs}
		if *verbose {
			opts.OnEvent = experiments.ProgressPrinter(os.Stderr, time.Now)
		}
		// One experiment on the batch runner: failed jobs are listed
		// under the table, a hang's full report goes to stderr.
		fmt.Printf("running %d benchmarks on %s...\n", len(benches), cfg.Name())
		e := experiments.SuiteOn(cfg)
		report, rerr := experiments.NewRunner(opts).Execute(ctx, e)
		err = experiments.PrintReport(os.Stdout, os.Stderr, e, report, rerr, map[string]bool{})
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "nubasim: interrupted")
			return 130
		}
		// A detected hang carries a structured report naming the stuck
		// components; print it in full before the one-line error. Every
		// other failure — including a recovered simulator panic — is the
		// one-line error alone.
		var hang *nuba.HangError
		if errors.As(err, &hang) {
			fmt.Fprint(os.Stderr, hang.Report.String())
		}
		fmt.Fprintln(os.Stderr, "nubasim:", err)
		return 1
	}
	return 0
}

// traceArgs carries the -trace/-trace-out/-trace-epoch flags.
type traceArgs struct {
	on    bool
	out   string
	epoch int64
}

// sink is one buffered trace output file.
type sink struct {
	f *os.File
	w *bufio.Writer
}

func newSink(path string) (*sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &sink{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *sink) Write(p []byte) (int, error) { return s.w.Write(p) }

func (s *sink) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// openTrace creates the two sink files for one run under the prefix.
func openTrace(prefix string, epoch int64) (*nuba.TraceOptions, []*sink, error) {
	nd, err := newSink(prefix + ".ndjson")
	if err != nil {
		return nil, nil, err
	}
	ch, err := newSink(prefix + ".trace.json")
	if err != nil {
		nd.Close()
		return nil, nil, err
	}
	return &nuba.TraceOptions{EpochCycles: epoch, Series: nd, Chrome: ch}, []*sink{nd, ch}, nil
}

// runOne simulates a single benchmark and prints the full statistics.
func runOne(ctx context.Context, cfg nuba.Config, b nuba.Benchmark, tr traceArgs, verbose bool) error {
	fmt.Printf("running %s (%s) on %s...\n", b.Abbr, b.Name, cfg.Name())
	var topts *nuba.TraceOptions
	var sinks []*sink
	if tr.on {
		var err error
		topts, sinks, err = openTrace(tr.out, tr.epoch)
		if err != nil {
			return err
		}
	}
	res, err := nuba.Run(ctx, cfg, b, nuba.WithTrace(topts))
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintln(os.Stderr, "engine:", res.System.EngineStats())
	}
	st := res.Stats
	fmt.Printf("cycles:            %d\n", st.Cycles)
	fmt.Printf("warp IPC:          %.3f\n", st.IPC())
	fmt.Printf("replies/cycle:     %.3f (perceived bandwidth)\n", st.RepliesPerCycle())
	fmt.Printf("L1 miss rate:      %.3f\n", st.L1MissRate())
	fmt.Printf("LLC hit rate:      %.3f\n", st.LLCHitRate())
	fmt.Printf("local fraction:    %.3f (replicated %.3f)\n", st.LocalFraction(),
		float64(st.ReplicatedAccesses)/float64(max(1, st.LocalAccesses+st.RemoteAccesses)))
	fmt.Printf("DRAM reads/writes: %d / %d (row hit %.2f)\n", st.DRAMReads, st.DRAMWrites,
		float64(st.DRAMRowHits)/float64(max(1, st.DRAMRowHits+st.DRAMRowMisses)))
	fmt.Printf("page faults:       %d (walks %d)\n", st.PageFaults, st.PageWalks)
	fmt.Printf("mem latency:       %.0f cycles avg\n", st.AvgMemLatency())
	one, two, eleven, over := res.Sharing.Buckets()
	fmt.Printf("page sharing:      1SM %.2f | 2-10 %.2f | 11-25 %.2f | >25 %.2f (%d pages)\n",
		one, two, eleven, over, res.Sharing.Pages())
	fmt.Printf("energy (mJ):       NoC %.3f | DRAM %.3f | core %.3f | LLC %.3f | static %.3f\n",
		st.NoCEnergyNJ/1e6, st.DRAMEnergyNJ/1e6, st.CoreEnergyNJ/1e6,
		st.LLCEnergyNJ/1e6, st.StaticEnergyNJ/1e6)
	fmt.Printf("NoC power:         %.2f W\n", st.NoCPowerW(cfg.CoreClockGHz))
	if st.MDRDecisions > 0 {
		fmt.Printf("MDR epochs:        %d (%d replicating)\n", st.MDRDecisions, st.MDREpochsReplicating)
	}
	fmt.Println()
	fmt.Print(nuba.DetailTable(st))
	if tr.on {
		fmt.Println()
		fmt.Printf("epoch trace:       %s\n", tr.out+".ndjson")
		fmt.Printf("chrome trace:      %s (load in Perfetto or chrome://tracing)\n", tr.out+".trace.json")
		chart, cerr := npbChart(tr.out + ".ndjson")
		if cerr != nil {
			return cerr
		}
		fmt.Println()
		fmt.Print(chart)
	}
	return nil
}

// npbChart re-reads an epoch trace and renders the Fig. 9-style
// NPB-over-time curve as an ASCII line chart.
func npbChart(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	chart := &nuba.LineChart{Title: "NPB over time (y: NPB, x: cycle)"}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type  string  `json:"type"`
			Cycle int64   `json:"cycle"`
			NPB   float64 `json:"npb"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("parse %s: %w", path, err)
		}
		if ev.Type == "epoch" {
			chart.Add(float64(ev.Cycle), ev.NPB)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return chart.String(), nil
}

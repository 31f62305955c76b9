// Command nubasweep runs one named reproduction experiment (a paper table
// or figure) and prints its report. Simulations execute across a worker
// pool (-jobs); the report is byte-identical for any worker count.
//
// Usage:
//
//	nubasweep -exp fig7 [-jobs 8] [-bench SGEMM,BICG] [-scale 0.5] [-v]
//	nubasweep -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/hostprof"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so deferred work — closing the output,
// finishing the profiles — happens on every path out.
func run() int {
	prof := hostprof.Flags()
	exp := flag.String("exp", "", "experiment name (see -list)")
	benchList := flag.String("bench", "", "comma-separated benchmark abbreviations (default: full suite)")
	scale := flag.Float64("scale", 1, "GPU scale factor (1 = 64-SM baseline)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "simulations to run in parallel (1 = serial)")
	verbose := flag.Bool("v", false, "print per-run progress")
	list := flag.Bool("list", false, "list experiments and benchmarks")
	engineFlag := flag.String("engine", "hybrid", nuba.EngineUsage())
	watchdog := flag.Int64("watchdog", 0, "fail a run once no component state changes for this many cycles while work is pending (0 = off)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 2
	}
	defer prof.Stop()

	engine, err := nuba.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 2
	}
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "nubasweep: -scale must be positive (got %g)\n", *scale)
		return 2
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-16s %s\n", e.Name, e.Title)
		}
		fmt.Println("benchmarks:")
		for _, b := range nuba.Suite() {
			cls := "low"
			if b.High {
				cls = "high"
			}
			fmt.Printf("  %-8s %-28s %s-sharing\n", b.Abbr, b.Name, cls)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "nubasweep: -exp required (or -list)")
		return 2
	}
	opts := experiments.Options{Scale: *scale, Jobs: *jobs, Engine: engine, Watchdog: *watchdog}
	if *verbose {
		opts.OnEvent = experiments.ProgressPrinter(os.Stderr)
	}
	if *benchList != "" {
		if opts.Benchmarks, err = nuba.ParseBenchmarks(*benchList); err != nil {
			fmt.Fprintln(os.Stderr, "nubasweep:", err)
			return 2
		}
	}
	e, err := experiments.ByName(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := experiments.NewRunner(opts)
	fmt.Printf("== %s ==\n", e.Title)
	report, err := r.Execute(ctx, e)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "nubasweep: interrupted")
			return 130
		}
		if report != nil {
			fmt.Print(report.Text) // every benchmark failed: say why
		}
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 1
	}
	fmt.Print(report.Text)
	if n := len(report.Failures); n > 0 {
		// The failed jobs are already detailed in the report's failures
		// section; exit non-zero so sweeps in scripts and CI notice.
		fmt.Fprintf(os.Stderr, "nubasweep: %d job(s) failed; the report above is partial\n", n)
		return 1
	}
	return 0
}

// Command nubasweep runs reproduction experiments (the paper's tables and
// figures) and prints their reports: one by name, several as a
// comma-separated list, or all of them — the whole evaluation — with
// -exp all. The experiments of one invocation share one runner, so
// figures that share simulations run them once. Simulations execute
// across a worker pool (-jobs); the report is byte-identical for any
// worker count.
//
// Usage:
//
//	nubasweep -exp fig7 [-jobs 8] [-bench SGEMM,BICG] [-scale 0.5] [-v]
//	nubasweep -exp all > report.txt
//	nubasweep -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/hostprof"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so deferred work — closing the output,
// finishing the profiles — happens on every path out.
func run() int {
	prof := hostprof.Flags()
	exp := flag.String("exp", "", "experiment name, comma-separated list of names, or 'all' (see -list)")
	benchList := flag.String("bench", "", "comma-separated benchmark abbreviations (default: full suite)")
	scale := flag.Float64("scale", 1, "GPU scale factor (1 = 64-SM baseline)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "simulations to run in parallel (1 = serial)")
	verbose := flag.Bool("v", false, "print per-run progress")
	list := flag.Bool("list", false, "list experiments and benchmarks")
	engineFlag := flag.String("engine", "hybrid", nuba.EngineUsage())
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
	opts := experiments.Options{Scale: *scale, Jobs: *jobs, Engine: engine}
	if *verbose {
		opts.OnEvent = experiments.ProgressPrinter(os.Stderr)
	}
	if *benchList != "" {
		if opts.Benchmarks, err = nuba.ParseBenchmarks(*benchList); err != nil {
			fmt.Fprintln(os.Stderr, "nubasweep:", err)
			return 2
		}
	}
	var exps []experiments.Experiment
	if *exp == "all" {
		exps = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "nubasweep:", err)
				return 2
			}
			exps = append(exps, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One runner for the whole invocation: an experiment finds the runs
	// an earlier one simulated in its memo cache.
	r := experiments.NewRunner(opts)
	status := 0
	hangShown := map[string]bool{} // a job shared by several experiments hangs once
	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", e.Title)
		report, err := r.Execute(ctx, e)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "nubasweep: interrupted")
			return 130
		}
		status = max(status, printReport(os.Stdout, os.Stderr, e.Name, report, err, hangShown))
	}
	return status
}

// printReport prints one experiment's outcome — a whole or partial
// report, or, when every benchmark failed, the failures section alone — on
// stdout, and on stderr each hang report not in hangShown yet. It returns
// the exit status the experiment earns: 1, with one line on stderr, if its
// report is not whole, so sweeps in scripts and CI notice.
func printReport(stdout, stderr io.Writer, name string, report *experiments.Report, err error, hangShown map[string]bool) int {
	if report != nil {
		fmt.Fprint(stdout, report.Text)
		for _, f := range report.Failures {
			if f.Hang != "" && !hangShown[f.Hang] {
				hangShown[f.Hang] = true
				fmt.Fprintf(stderr, "%s on %s: %s", f.Bench, f.Config, f.Hang)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "nubasweep:", err)
		return 1
	}
	if n := len(report.Failures); n > 0 {
		fmt.Fprintf(stderr, "nubasweep: %s: %d job(s) failed; its report is partial\n", name, n)
		return 1
	}
	return 0
}

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
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/hostprof"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so deferred work — closing the output,
// finishing the profiles — happens on every path out.
func run() int {
	c, err := parse(flag.NewFlagSet("nubasweep", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 2
	}
	if err := c.prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "nubasweep:", err)
		return 2
	}
	defer c.prof.Stop()
	if c.verbose {
		c.opts.OnEvent = experiments.ProgressPrinter(os.Stderr, time.Now)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return sweep(ctx, c, experiments.NewRunner(c.opts), os.Stdout, os.Stderr)
}

// command is one parsed nubasweep command line.
type command struct {
	exps    []experiments.Experiment
	opts    experiments.Options
	list    bool
	verbose bool
	prof    *hostprof.Profiler
}

// parse defines nubasweep's flags on fs and reads args with them. A
// command line it accepts names only experiments and benchmarks that
// exist, and a scale that gives whole SM, slice and channel counts.
func parse(fs *flag.FlagSet, args []string) (*command, error) {
	c := &command{prof: hostprof.Flags(fs)}
	exp := fs.String("exp", "", "experiment name, comma-separated list of names, or 'all' (see -list)")
	benchList := fs.String("bench", "", "comma-separated benchmark abbreviations (default: full suite)")
	scale := fs.Float64("scale", 1, "GPU scale factor (1 = 64-SM baseline)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "simulations to run in parallel (1 = serial)")
	fs.BoolVar(&c.verbose, "v", false, "print per-run progress")
	fs.BoolVar(&c.list, "list", false, "list experiments and benchmarks")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := nuba.CheckScale(*scale); err != nil {
		return nil, err
	}
	c.opts = experiments.Options{Scale: *scale, Jobs: *jobs}
	if c.list {
		return c, nil
	}
	if *exp == "" {
		return nil, errors.New("-exp required (or -list)")
	}
	if *benchList != "" {
		var err error
		if c.opts.Benchmarks, err = nuba.ParseBenchmarks(*benchList); err != nil {
			return nil, err
		}
	}
	if *exp == "all" {
		c.exps = experiments.All()
		return c, nil
	}
	for _, name := range strings.Split(*exp, ",") {
		e, err := experiments.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		c.exps = append(c.exps, e)
	}
	return c, nil
}

// sweep is everything nubasweep does once its command line is parsed:
// it prints the list, or each experiment's report as r renders it, the
// reports joined by a blank line, and returns the exit status — 1 if any
// report is not whole, 130 if ctx was canceled. `make experiments`
// regenerates every EXPERIMENTS.md block through it.
func sweep(ctx context.Context, c *command, r *experiments.Runner, stdout, stderr io.Writer) int {
	if c.list {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-16s %s\n", e.Name, e.Title)
		}
		fmt.Fprintln(stdout, "benchmarks:")
		for _, b := range nuba.Suite() {
			cls := "low"
			if b.High {
				cls = "high"
			}
			fmt.Fprintf(stdout, "  %-8s %-28s %s-sharing\n", b.Abbr, b.Name, cls)
		}
		return 0
	}
	status := 0
	shown := map[string]bool{} // a job shared by several experiments hangs once
	for i, e := range c.exps {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "== %s ==\n", e.Title)
		report, err := r.Execute(ctx, e)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "nubasweep: interrupted")
			return 130
		}
		if err := experiments.PrintReport(stdout, stderr, e, report, err, shown); err != nil {
			fmt.Fprintln(stderr, "nubasweep:", err)
			status = 1
		}
	}
	return status
}

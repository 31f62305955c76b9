// Command nubareport runs every reproduction experiment and writes a
// single report (EXPERIMENTS.md-style) to stdout or a file. This is the
// long-running "regenerate the whole evaluation" entry point; simulations
// run across a worker pool (-jobs), and Ctrl-C stops the run cleanly
// after in-flight simulations wind down.
//
// Usage:
//
//	nubareport [-o report.md] [-jobs 8] [-scale 0.5] [-bench A,B,...] [-skip fig10,fig16]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	prof := hostprof.Flags()
	out := flag.String("o", "", "output file (default stdout)")
	scale := flag.Float64("scale", 1, "GPU scale factor")
	benchList := flag.String("bench", "", "comma-separated benchmark subset")
	skip := flag.String("skip", "", "comma-separated experiments to skip")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "simulations to run in parallel (1 = serial)")
	verbose := flag.Bool("v", false, "per-run progress on stderr")
	engineFlag := flag.String("engine", "hybrid", nuba.EngineUsage())
	watchdog := flag.Int64("watchdog", 0, "fail a run once no component state changes for this many cycles while work is pending (0 = off)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "nubareport:", err)
		return 2
	}
	defer prof.Stop()

	engine, err := nuba.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubareport:", err)
		return 2
	}
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "nubareport: -scale must be positive (got %g)\n", *scale)
		return 2
	}
	opts := experiments.Options{Scale: *scale, Jobs: *jobs, Engine: engine, Watchdog: *watchdog}
	if *verbose {
		opts.OnEvent = experiments.ProgressPrinter(os.Stderr)
	}
	if *benchList != "" {
		if opts.Benchmarks, err = nuba.ParseBenchmarks(*benchList); err != nil {
			fmt.Fprintln(os.Stderr, "nubareport:", err)
			return 2
		}
	}
	skipSet := map[string]bool{}
	for _, s := range strings.Split(*skip, ",") {
		if s = strings.TrimSpace(s); s != "" {
			if _, err := experiments.ByName(s); err != nil {
				fmt.Fprintln(os.Stderr, "nubareport: -skip:", err)
				return 2
			}
			skipSet[s] = true
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nubareport:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := experiments.NewRunner(opts)
	fmt.Fprintf(w, "# NUBA reproduction report\n\n")
	failed := 0
	for _, e := range experiments.All() {
		if skipSet[e.Name] {
			fmt.Fprintf(w, "## %s — SKIPPED\n\n", e.Title)
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s ==\n", e.Name)
		report, err := r.Execute(ctx, e)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(w, "## %s\n\nINTERRUPTED\n\n", e.Title)
				fmt.Fprintln(os.Stderr, "nubareport: interrupted")
				return 130
			}
			fmt.Fprintf(w, "## %s\n\nERROR: %v\n", e.Title, err)
			if report != nil {
				fmt.Fprintf(w, "```%s```\n", report.Text) // every benchmark failed: say why
			}
			fmt.Fprintln(w)
			failed++
			continue
		}
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n(%.0fs)\n\n", e.Title, report.Text, time.Since(start).Seconds())
		if len(report.Failures) > 0 {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "nubareport: %d experiment(s) failed or are partial\n", failed)
		return 1
	}
	return 0
}

// Command nubabench is the repository's benchmark: six workloads split on
// where NUBA's bytes flow, host-cost metrics with regression bounds, and a
// per-layer ledger measured from outside the simulator. BENCHMARK.json at
// the repository root is its contract; bench/README.md explains the
// workloads, the metrics and how to read a result.
//
// One invocation measures one workload:
//
//	bash bench/run.sh --workload stream_nuba --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the timed pass and prints every end-to-end
// metric; with --trace 1 it runs the traced pass and prints every
// per-layer metric. The last line of standard output is one JSON object;
// the human-readable table goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// specFile is the benchmark contract, read from the working directory
// (the checkout root): the declared metric names are checked against the
// emitted ones on every run, and -selfcheck reads its bounds from it.
const specFile = "BENCHMARK.json"

// metricSpec is one declared metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec mirrors the parts of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one invocation, written to -out.
type record struct {
	Workload  string            `json:"workload"`
	Env       environment       `json:"env"`
	Result    result            `json:"result"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"stats_digest"`
	HostSpeed float64           `json:"host_speed,omitempty"`
	Samples   []sample          `json:"samples,omitempty"`
	Spread    map[string]spread `json:"spread,omitempty"`
}

// environment records what the numbers were measured on.
type environment struct {
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostEnvironment(seed uint64) environment {
	return environment{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkDeclared verifies that the emitted metric names are exactly the
// declared ones, with the declared units.
func checkDeclared(emitted map[string]metric, declared []metricSpec) error {
	var problems []string
	seen := make(map[string]bool, len(declared))
	for _, d := range declared {
		seen[d.Name] = true
		m, ok := emitted[d.Name]
		switch {
		case !ok:
			problems = append(problems, "declared but not emitted: "+d.Name)
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit))
		}
	}
	for name := range emitted {
		if !metricName.MatchString(name) {
			problems = append(problems, "malformed metric name: "+name)
		}
		if !seen[name] {
			problems = append(problems, "emitted but not declared: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with %s:\n  %s", specFile, strings.Join(problems, "\n  "))
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nubabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seeds the layer drivers' address and port streams; the simulated workloads are fixed inputs")
	seconds := fs.Float64("seconds", 0, "timed-pass budget in seconds (default: run_seconds of "+specFile+")")
	traced := fs.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run the timed pass twice and fail if any median differs by more than its bound")
	out := fs.String("out", "", "result file (default .bench_build/<workload>.json; spans go beside it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nubabench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		return fail("-trace must be 0 or 1")
	}
	if *selfcheck && *traced == 1 {
		return fail("-selfcheck compares timed passes; use it with -trace 0")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return fail("%v (run from the repository root)", err)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fail("GOMAXPROCS=%d exceeds nproc=%d: refusing to oversubscribe the host", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	w, err := newWorkload(*name, fullSize)
	if err != nil {
		return fail("%v", err)
	}
	if err := checkWorkloadsDeclared(sp); err != nil {
		return fail("%v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", *name+".json")
	}
	env := hostEnvironment(*seed)
	fmt.Fprintf(stderr, "nubabench %s: seed=%d nproc=%d GOMAXPROCS=%d %s cpu=%q\n",
		*name, env.Seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel)

	ctx := context.Background()
	rec := record{Workload: *name, Env: env}
	var declared []metricSpec
	status := 0
	if *traced == 1 {
		declared = sp.PerLayer
		tp, err := tracedPass(ctx, w, *seed, layerOps)
		if err != nil {
			return fail("%v", err)
		}
		rec.Result, rec.Failures, rec.Digest = tp.result(tp.values), tp.failures, tp.digestHex()
		if err := writeJSON(spansPath(*out), tp.spans.list); err != nil {
			return fail("%v", err)
		}
	} else {
		declared = sp.EndToEnd
		first, err := timedPass(ctx, w, *seconds)
		if err != nil {
			return fail("%v", err)
		}
		rec.Result, rec.Failures, rec.Digest = first.result(first.metrics()), first.failures, first.digestHex()
		rec.HostSpeed, rec.Samples, rec.Spread = first.speed, first.samples, first.spreads()
		if *selfcheck {
			second, err := timedPass(ctx, w, *seconds)
			if err != nil {
				return fail("%v", err)
			}
			if diffs := compareSets(*name, first, second, sp.EndToEnd); len(diffs) > 0 {
				for _, d := range diffs {
					fmt.Fprintln(stderr, "selfcheck: "+d)
				}
				status = 1
			} else {
				fmt.Fprintf(stderr, "selfcheck: %s: two sets agree within every bound\n", *name)
			}
		}
	}
	if err := checkDeclared(rec.Result.Metrics, declared); err != nil {
		return fail("%v", err)
	}
	printTable(stderr, &rec, declared)
	if err := writeJSON(*out, &rec); err != nil {
		return fail("%v", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(stdout, string(line))
	return status
}

// checkWorkloadsDeclared verifies the program's workloads are exactly the
// ones BENCHMARK.json declares.
func checkWorkloadsDeclared(sp *spec) error {
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	have := workloadNames()
	sort.Strings(declared)
	sort.Strings(have)
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		return fmt.Errorf("%s declares workloads %v, the program has %v", specFile, declared, have)
	}
	return nil
}

// spansPath returns the span file that sits beside the result file.
func spansPath(out string) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + ".spans.json"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name with its unit, direction and
// bound, and for timings the min, max and sample count behind the median.
func printTable(w io.Writer, rec *record, declared []metricSpec) {
	fmt.Fprintf(w, "%-34s %16s %-8s %-7s %-7s %s\n", "metric", "value", "unit", "better", "bound", "min / max / n")
	for _, d := range declared {
		m := rec.Result.Metrics[d.Name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", d.Bound*100)
		}
		extra := ""
		if s, ok := rec.Spread[d.Name]; ok {
			extra = fmt.Sprintf("%.6g / %.6g / %d", s.Min, s.Max, s.N)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-8s %-7s %-7s %s\n", d.Name, m.Value, d.Unit, d.Better, bound, extra)
	}
	if rec.HostSpeed > 0 {
		fmt.Fprintf(w, "times are normalised to the reference host: this host ran at %.3f of its speed\n", rec.HostSpeed)
	}
	fmt.Fprintf(w, "core.stats_digest %s   attempted %d  failed %d  correct %v\n",
		rec.Digest, rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED: "+f)
	}
}

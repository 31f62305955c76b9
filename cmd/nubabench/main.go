// Command nubabench turns `go test -bench` output into the committed
// BENCH_<n>.json perf-trajectory record (schema in docs/PERF.md). It
// reads the benchmark output on stdin, derives simulator-throughput
// metrics (ns per simulated cycle, simulated cycles per second) from the
// custom simcycles/run metric the benches report, and pairs the hybrid
// and naive runs of the same workload into speedup entries.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkEngineThroughput' -benchmem . | nubabench -o BENCH_<n>.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/nuba-gpu/nuba/internal/hostprof"
)

// Result is one benchmark line of the record. Benchmark and Engine are
// filled for the BenchmarkEngineThroughput/<bench>/<engine> lines that
// carry the perf trajectory; other benchmarks keep only Name.
type Result struct {
	Name       string  `json:"name"`
	Benchmark  string  `json:"benchmark,omitempty"`
	Engine     string  `json:"engine,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// SimCycles and SimInstrs echo the benches' custom per-run metrics.
	SimCycles float64 `json:"sim_cycles,omitempty"`
	SimInstrs float64 `json:"sim_instrs,omitempty"`
	// NsPerSimCycle is NsPerOp / SimCycles; SimCyclesPerSec its inverse
	// in cycles per wall-clock second — the simulator's headline speed.
	NsPerSimCycle   float64 `json:"ns_per_sim_cycle,omitempty"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Speedup pairs the engines on one workload.
type Speedup struct {
	Benchmark string `json:"benchmark"`
	// HybridVsNaive is naive ns/op over hybrid ns/op: >1 means the
	// idle-skip engine is faster on this workload.
	HybridVsNaive float64 `json:"hybrid_vs_naive"`
}

// Report is the whole BENCH_<n>.json document.
type Report struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// HostCPUs is runtime.NumCPU() on the converting host (the machine
	// that ran `make bench`).
	HostCPUs   int       `json:"host_cpus,omitempty"`
	Package    string    `json:"pkg,omitempty"`
	Benchmarks []Result  `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups,omitempty"`
}

func main() { os.Exit(run()) }

// run is main with an exit status, so deferred work — closing the output,
// finishing the profiles — happens on every path out.
func run() int {
	prof := hostprof.Flags()
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "nubabench:", err)
		return 2
	}
	defer prof.Stop()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubabench:", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "nubabench: no benchmark lines on stdin (pipe `go test -bench` output)")
		return 1
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubabench:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nubabench:", err)
		return 1
	}
	fmt.Printf("nubabench: wrote %d benchmarks (%d engine pairs) to %s\n",
		len(rep.Benchmarks), len(rep.Speedups), *out)
	return 0
}

// parse consumes `go test -bench` output: the goos/goarch/pkg/cpu
// header, then one "BenchmarkName-P  iters  value unit  value unit ..."
// line per completed benchmark.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, hdr := range []struct {
			prefix string
			dst    *string
		}{
			{"goos: ", &rep.GOOS}, {"goarch: ", &rep.GOARCH},
			{"pkg: ", &rep.Package}, {"cpu: ", &rep.CPU},
		} {
			if v, ok := strings.CutPrefix(line, hdr.prefix); ok {
				*hdr.dst = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if res != nil {
			rep.Benchmarks = append(rep.Benchmarks, *res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.HostCPUs = runtime.NumCPU()
	rep.Speedups = pairSpeedups(rep.Benchmarks)
	return rep, nil
}

// parseBenchLine parses one benchmark result line, returning nil for
// non-result lines that merely start with "Benchmark" (the bare name
// echoed under -v).
func parseBenchLine(line string) (*Result, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return nil, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, nil
	}
	res := &Result{Name: trimProcs(f[0]), Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = val
		case "simcycles/run":
			res.SimCycles = val
		case "siminstrs/run":
			res.SimInstrs = val
		case "B/op":
			res.BytesPerOp = val
		case "allocs/op":
			res.AllocsPerOp = val
		}
	}
	if res.SimCycles > 0 && res.NsPerOp > 0 {
		res.NsPerSimCycle = res.NsPerOp / res.SimCycles
		res.SimCyclesPerSec = res.SimCycles / (res.NsPerOp / 1e9)
	}
	// BenchmarkEngineThroughput/<bench>/<engine> carries the trajectory.
	if parts := strings.Split(res.Name, "/"); len(parts) == 3 &&
		parts[0] == "BenchmarkEngineThroughput" {
		res.Benchmark, res.Engine = parts[1], parts[2]
	}
	return res, nil
}

// trimProcs strips the trailing GOMAXPROCS suffix ("-8") off a
// benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// pairSpeedups derives the hybrid-vs-naive speedup of every workload
// that ran under both engines, sorted by workload name.
func pairSpeedups(results []Result) []Speedup {
	byEngine := make(map[string]map[string]float64) // bench -> engine -> ns/op
	for _, r := range results {
		if r.Benchmark == "" || r.Engine == "" || r.NsPerOp <= 0 {
			continue
		}
		if byEngine[r.Benchmark] == nil {
			byEngine[r.Benchmark] = make(map[string]float64)
		}
		byEngine[r.Benchmark][r.Engine] = r.NsPerOp
	}
	var names []string
	for name := range byEngine {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Speedup
	for _, name := range names {
		h, n := byEngine[name]["hybrid"], byEngine[name]["naive"]
		if h > 0 && n > 0 {
			out = append(out, Speedup{Benchmark: name, HybridVsNaive: n / h})
		}
	}
	return out
}

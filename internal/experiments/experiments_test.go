package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/workload"
)

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != len(All()) || len(names) < 15 {
		t.Fatalf("names: %v", names)
	}
	for _, n := range names {
		e, err := ByName(n)
		if err != nil || e.Name != n {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// execute runs the named experiment on r and returns its report, failing
// the test on an error or a job failure.
func execute(t *testing.T, r *Runner, name string) *Report {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("%s: unexpected job failures: %+v", name, rep.Failures)
	}
	return rep
}

func TestTable2RunsWithoutSimulation(t *testing.T) {
	r := NewRunner(Options{})
	out := execute(t, r, "table2").Text
	for _, b := range workload.Suite() {
		if !strings.Contains(out, b.Abbr) {
			t.Fatalf("table2 missing %s:\n%s", b.Abbr, out)
		}
	}
	if len(r.cache) != 0 {
		t.Fatalf("table2 simulated %d runs", len(r.cache))
	}
}

func TestFig3SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	bp, _ := workload.ByAbbr("BP")
	sg, _ := workload.ByAbbr("SGEMM")
	r := NewRunner(Options{Scale: 0.125, Benchmarks: []workload.Benchmark{bp, sg}})
	out := execute(t, r, "fig3").Text
	if !strings.Contains(out, "BP") || !strings.Contains(out, "SGEMM") {
		t.Fatalf("fig3 output:\n%s", out)
	}
}

// TestParallelMatchesSerial is the engine's determinism contract: a
// serial run (jobs=1) and a jobs=4 run of the same experiment must
// produce byte-identical report text and identical cycle counts for
// every (config, benchmark) pair.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	bp, _ := workload.ByAbbr("BP")
	leu, _ := workload.ByAbbr("LEU")
	benches := []workload.Benchmark{bp, leu}
	e, err := ByName("fig7")
	if err != nil {
		t.Fatal(err)
	}

	serial := NewRunner(Options{Scale: 0.125, Benchmarks: benches, Jobs: 1})
	serialOut, err := serial.Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	par := NewRunner(Options{Scale: 0.125, Benchmarks: benches, Jobs: 4})
	parOut, err := par.Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}

	if serialOut.Text != parOut.Text {
		t.Fatalf("jobs=4 report differs from jobs=1:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", serialOut.Text, parOut.Text)
	}
	if len(serialOut.Failures) != 0 || len(parOut.Failures) != 0 {
		t.Fatalf("unexpected job failures: serial %v, parallel %v", serialOut.Failures, parOut.Failures)
	}
	if len(serial.cache) == 0 || len(serial.cache) != len(par.cache) {
		t.Fatalf("cache sizes differ: serial %d, parallel %d", len(serial.cache), len(par.cache))
	}
	for key, se := range serial.cache {
		pe, ok := par.cache[key]
		if !ok {
			t.Fatalf("parallel runner missing run %q", key)
		}
		if se.res.Stats.Cycles != pe.res.Stats.Cycles {
			t.Fatalf("run %q: serial %d cycles, parallel %d cycles",
				key, se.res.Stats.Cycles, pe.res.Stats.Cycles)
		}
	}
}

// TestEveryExperiment executes each experiment on a two-benchmark subset
// and checks that it renders, from finished runs alone, without a
// failure: the plan derived from Configs is all a renderer can read, so
// rendering after a Prefetch of the plan must leave the cache untouched.
// Each figure's scalars have distinct names, and each prints in the
// report as it stands in the figure.
// The reports, joined exactly as `nubasweep -exp all -bench BH,AN -scale
// 0.125` prints them, are then held to testdata/all_s0125.txt: all three
// architectures, PAE and the MCM layouts say what they said at the last
// commit that meant to change them. One that means to regenerates the file
// and shows the moved lines as its diff:
//
//	REGEN=1 go test -run TestEveryExperiment ./internal/experiments
func TestEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	const golden = "testdata/all_s0125.txt"
	r := NewRunner(Options{Scale: 0.125,
		Benchmarks: []workload.Benchmark{stressBench(t, "BH"), stressBench(t, "AN")}})
	var got strings.Builder
	for i, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			plan := e.Plan(r)
			if (len(plan) == 0) != (e.Configs == nil) {
				t.Fatalf("plan has %d jobs", len(plan))
			}
			if err := r.Prefetch(context.Background(), plan); err != nil {
				t.Fatal(err)
			}
			before := len(r.cache)
			rep := execute(t, r, e.Name)
			out := rep.Text
			if out == "" {
				t.Fatal("empty report")
			}
			if len(r.cache) != before {
				t.Fatalf("rendering simulated %d runs the plan missed", len(r.cache)-before)
			}
			named := map[string]bool{}
			for _, s := range rep.fig.scalars {
				if named[s.name] {
					t.Errorf("two scalars named %q", s.name)
				}
				named[s.name] = true
				if !strings.Contains(out, s.String()) {
					t.Errorf("scalar %q prints as %q, which the report does not show", s.name, s)
				}
			}
			if i > 0 {
				got.WriteByte('\n')
			}
			fmt.Fprintf(&got, "== %s ==\n%s", e.Title, out)
		})
	}
	if t.Failed() {
		return
	}
	if os.Getenv("REGEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the report %d: regenerate it (REGEN=1)", golden, len(wantLines), len(gotLines))
	}
	for i, w := range wantLines {
		if gotLines[i] != w {
			t.Errorf("line %d of the report moved:\n got  %s\n want %s", i+1, gotLines[i], w)
		}
	}
}

// TestEmptySharingClassRendersNA: a subset with no low-sharing benchmark
// (LEU is high-sharing) has no low-sharing harmonic mean to report — not a
// -100% one. The figure holds it as NaN, and the report prints it as n/a.
func TestEmptySharingClassRendersNA(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	r := NewRunner(Options{Scale: 0.125, Benchmarks: []workload.Benchmark{stressBench(t, "LEU")}})
	for _, name := range []string{"fig7", "fig14-llc", "fig14-lab"} {
		rep := execute(t, r, name)
		if out := rep.Text; !strings.Contains(out, "n/a") || strings.Contains(out, "-100.0%") {
			t.Errorf("%s renders the empty low-sharing class as:\n%s", name, out)
		}
		low := 0
		for _, s := range rep.fig.scalars {
			if strings.HasSuffix(s.name, "/low") {
				low++
				if !math.IsNaN(s.value) {
					t.Errorf("%s: %s = %v, want NaN", name, s.name, s.value)
				}
			}
		}
		if low == 0 {
			t.Errorf("%s: no low-sharing mean in the figure", name)
		}
	}
}

// TestCanceledContextStopsEngine: a context canceled mid-run stops
// scheduling promptly and surfaces ctx.Err().
func TestCanceledContextStopsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	bp, _ := workload.ByAbbr("BP")
	leu, _ := workload.ByAbbr("LEU")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Options{
		Scale: 0.125, Benchmarks: []workload.Benchmark{bp, leu}, Jobs: 1,
		// Cancel as soon as the first run completes; the engine must
		// then refuse to schedule the remaining jobs.
		OnEvent: func(Event) { cancel() },
	})
	e, _ := ByName("fig7")
	_, err := r.Execute(ctx, e)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := len(r.cache); got >= 8 {
		t.Fatalf("engine kept scheduling after cancel: %d runs cached", got)
	}
}

// TestPreCanceledContext: an already-canceled context returns before any
// simulation starts.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Jobs: 4})
	e, _ := ByName("fig7")
	_, err := r.Execute(ctx, e)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(r.cache) != 0 {
		t.Fatalf("simulated %d runs under a canceled context", len(r.cache))
	}
}

func TestFig7SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	bp, _ := workload.ByAbbr("BP")
	r := NewRunner(Options{Scale: 0.125, Benchmarks: []workload.Benchmark{bp}})
	out := execute(t, r, "fig7").Text
	if !strings.Contains(out, "NUBA") || !strings.Contains(out, "%") {
		t.Fatalf("fig7 output:\n%s", out)
	}
	// Runs are memoized: a second experiment sharing configurations must
	// not re-simulate (fast path check via the cache size).
	if len(r.cache) == 0 {
		t.Fatal("runner cache empty")
	}
	before := len(r.cache)
	execute(t, r, "fig9")
	if len(r.cache) != before {
		t.Fatal("fig9 re-simulated runs fig7 already did")
	}
}

// TestRunnerKeepsMeasurementsNotMachines: a finished job stays in the memo
// cache as what renderers read — never as the assembled GPU, which is
// what made a full report outgrow memory — and a later experiment still
// renders the runs it shares from there.
func TestRunnerKeepsMeasurementsNotMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	var simulated []string
	r := NewRunner(Options{Scale: 0.125, Benchmarks: []workload.Benchmark{stressBench(t, "BP")},
		OnEvent: func(ev Event) { simulated = append(simulated, ev.Config) }})
	execute(t, r, "fig12")
	if len(r.cache) != 3 {
		t.Fatalf("fig12 on one benchmark cached %d runs, want 3", len(r.cache))
	}
	for key, ent := range r.cache {
		if ent.res == nil || ent.res.Stats == nil || ent.res.Sharing == nil {
			t.Fatalf("run %q lost its measurements: %+v", key, ent.res)
		}
		if ent.res.System != nil {
			t.Errorf("run %q pins its whole GPU in the cache", key)
		}
	}
	// fig7 shares NUBA and NUBA-No-Rep with fig12: only the two UBA
	// baselines are new.
	execute(t, r, "fig7")
	if len(simulated) != 5 || strings.Contains(strings.Join(simulated[3:], ","), "NUBA") {
		t.Fatalf("fig12 then fig7 simulated %q, want fig12's three and then the two UBA configurations only", simulated)
	}
}

// TestSuiteOn is nubasim's multi-benchmark mode: one configuration taken
// as given, a repeated benchmark simulated once but rendered once per
// mention, rows in input order, the same bytes for any worker count.
func TestSuiteOn(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	cfg := nuba.NUBAConfig().Scale(0.125)
	benches := []workload.Benchmark{stressBench(t, "BH"), stressBench(t, "BH"), stressBench(t, "LEU")}
	var texts []string
	for _, jobs := range []int{1, 4} {
		events := 0
		r := NewRunner(Options{Benchmarks: benches, Jobs: jobs, OnEvent: func(Event) { events++ }})
		rep, err := r.Execute(context.Background(), SuiteOn(cfg))
		if err != nil || len(rep.Failures) != 0 {
			t.Fatalf("jobs=%d: %v, failures %+v", jobs, err, rep)
		}
		if len(r.cache) != 2 || events != 2 {
			t.Fatalf("jobs=%d: %d cached runs, %d events; want 2 of each", jobs, len(r.cache), events)
		}
		texts = append(texts, rep.Text)
	}
	if texts[0] != texts[1] {
		t.Fatalf("jobs=4 table differs from jobs=1:\n%s\n%s", texts[0], texts[1])
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(texts[0]), "\n")[1:] {
		rows = append(rows, strings.Fields(line)[0])
	}
	if got := strings.Join(rows, ","); got != "BH,BH,LEU" {
		t.Fatalf("rows %s, want BH,BH,LEU:\n%s", got, texts[0])
	}
}

// TestFailedJobCountsAsProgress: a job that fails is still one simulated
// job — it reaches OnEvent once, carrying its error and no counters, and
// the last event of the batch reads done == total.
func TestFailedJobCountsAsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	plan := armPlan{{"", "BP"}: {{Kind: core.PanicAt, At: 2000}}}
	var events []Event
	r := NewRunner(Options{
		Benchmarks: []workload.Benchmark{stressBench(t, "BP"), stressBench(t, "LEU")},
		Jobs:       1, Arm: plan.arm,
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	rep, err := r.Execute(context.Background(), SuiteOn(nuba.NUBAConfig().Scale(0.125)))
	if err != nil || len(rep.Failures) != 1 {
		t.Fatalf("want a partial report with one failure: %v, %+v", err, rep)
	}
	if len(events) != 2 {
		t.Fatalf("want one event per simulated job, got %d: %+v", len(events), events)
	}
	bp, last := events[0], events[1]
	if bp.Bench != "BP" || !strings.Contains(bp.Err, "panic") || bp.Cycles != 0 || bp.IPC != 0 {
		t.Errorf("failed job's event: %+v", bp)
	}
	if last.Err != "" || last.Cycles == 0 || last.Done != 2 || last.Total != 2 {
		t.Errorf("last event must close the batch: %+v", last)
	}
	// The printer's clock advances 2.25 s a read after the one that
	// starts it: the mid-batch line extrapolates the one job left, the
	// last line has nothing left to estimate.
	clock := time.Unix(0, 0)
	now := func() time.Time { c := clock; clock = clock.Add(2250 * time.Millisecond); return c }
	var out strings.Builder
	progress := ProgressPrinter(&out, now)
	progress(bp)
	progress(last)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one progress line per event, got %q", out.String())
	}
	if l := lines[0]; !strings.HasPrefix(l, "  [1/2] BP ") || !strings.Contains(l, " FAILED: ") ||
		!strings.HasSuffix(l, " elapsed=2.3s eta=2s") {
		t.Errorf("progress line of a failed mid-batch job: %q", l)
	}
	if l := lines[1]; !strings.HasPrefix(l, "  [2/2] LEU ") || !strings.Contains(l, " cycles=") ||
		!strings.HasSuffix(l, " elapsed=4.5s") {
		t.Errorf("progress line of the last job: %q", l)
	}
}

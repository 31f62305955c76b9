package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/experiments"
)

// TestMultiBenchmarkMode is the CLI smoke test of the batch front door:
// the binary is built once and run on two clean batches, with the policy
// names its own tables print, on a benchmark that does not exist, with the
// retired -watchdog flag, on a scale that is not a GPU and on two that are
// not an SM-side UBA. A batch with a failed job is TestBatchWithAHangingJob.
func TestMultiBenchmarkMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nubasim")
	}
	bin := filepath.Join(t.TempDir(), "nubasim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns the tool's stdout, stderr and exit status.
	run := func(args ...string) (string, string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("nubasim %s: %v", strings.Join(args, " "), err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}
	hasRow := func(stdout, abbr string) bool {
		return regexp.MustCompile(`(?m)^` + abbr + ` +[1-9][0-9]* `).MatchString(stdout)
	}

	stdout, stderr, code := run("-bench", "BH,LEU", "-scale", "0.125")
	if code != 0 || !hasRow(stdout, "BH") || !hasRow(stdout, "LEU") {
		t.Errorf("clean batch: exit %d\n%s%s", code, stdout, stderr)
	}

	// LBM on NUBA with round-robin placement, which replicates across
	// partitions more than any other batch here, drains like the others.
	stdout, stderr, code = run("-arch", "nuba", "-placement", "rr", "-bench", "LBM,LEU,BH",
		"-scale", "0.125")
	if code != 0 || !hasRow(stdout, "LBM") || !hasRow(stdout, "LEU") || !hasRow(stdout, "BH") || stderr != "" {
		t.Errorf("round-robin batch: exit %d\n%s%s", code, stdout, stderr)
	}

	// The tool takes back the names it prints: "NUBA/LAB/Full-Rep" is a
	// table heading, so each part is a flag value, in any case.
	stdout, stderr, code = run("-arch", "NUBA", "-placement", "LAB", "-replication", "Full-Rep",
		"-bench", "BH,LEU", "-scale", "0.125")
	if code != 0 || !strings.Contains(stdout, "on NUBA/LAB/Full-Rep/") || !hasRow(stdout, "BH") {
		t.Errorf("-replication Full-Rep: exit %d\n%s%s", code, stdout, stderr)
	}
	if _, stderr, code = run("-replication", "half", "-bench", "BH"); code != 2 ||
		stderr != "nubasim: unknown replication \"half\" (want none | full | mdr)\n" {
		t.Errorf("-replication half: exit %d, stderr %q", code, stderr)
	}

	// One benchmark, -v: the cycle loop's own counters, on stderr only — what
	// it stepped and ticked, then the offers made and refused site by site.
	if stdout, stderr, code = run("-bench", "LEU", "-scale", "0.125", "-v"); code != 0 ||
		!regexp.MustCompile(`(?m)^engine: cycles stepped=[1-9][0-9]* skipped=[1-9][0-9]*; ticks ran/slept, SM [1-9][0-9]*/[1-9]`).MatchString(stderr) ||
		!regexp.MustCompile(`(?m)^offers: made/refused, SM send [1-9][0-9]*/[0-9]+, LSU head [1-9].*, channel enqueue [1-9][0-9]*/[0-9]+$`).MatchString(stderr) ||
		strings.Contains(stdout, "engine:") || strings.Contains(stdout, "offers:") {
		t.Errorf("-v on one benchmark: exit %d, stderr %q", code, stderr)
	}

	if _, stderr, code = run("-bench", "nosuch"); code != 2 || !strings.Contains(stderr, "nosuch") {
		t.Errorf("unknown benchmark: exit %d, stderr %q", code, stderr)
	}
	if stdout, stderr, code = run("-bench", "LEU", "-watchdog", "1"); code != 2 || stdout != "" ||
		!strings.Contains(stderr, "flag provided but not defined: -watchdog") {
		t.Errorf("-watchdog: exit %d, stdout %q, stderr %q; the guard is not an option", code, stdout, stderr)
	}
	for _, scale := range []string{"0", "-1"} {
		if stdout, stderr, code = run("-bench", "BH,LEU", "-scale", scale); code != 2 ||
			stdout != "" || !strings.Contains(stderr, "-scale must be positive") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q", scale, code, stdout, stderr)
		}
	}
	// One channel cannot be split into halves (2/2/1 and 3/3/1 SMs, slices
	// and channels): a one-line configuration error, where building the GPU
	// used to divide by zero and index out of range.
	for _, scale := range []string{"0.03125", "0.046875"} {
		if _, stderr, code = run("-arch", "sm-side", "-bench", "BH", "-scale", scale); code != 1 ||
			!strings.HasPrefix(stderr, "nubasim: config: SM-side UBA needs an even number of channels") ||
			strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "panic in run") {
			t.Errorf("-arch sm-side -scale %s: exit %d, stderr %q", scale, code, stderr)
		}
	}
}

// TestBatchWithAHangingJob: a job that hangs costs its own row and nothing
// else. The table keeps the other rows and gains a FAILED JOBS section with
// the hang's one-line error; stderr gets the hang's full report; and the
// batch is an error, which run turns into exit status 1. The hang is a
// wedged SM, injected through the runner's Arm hook.
func TestBatchWithAHangingJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	benches, err := nuba.ParseBenchmarks("LEU,BH")
	if err != nil {
		t.Fatal(err)
	}
	wedgeBH := func(_, bench string) func(*nuba.System) error {
		if bench != "BH" {
			return nil
		}
		return func(g *nuba.System) error { return g.Inject(0, core.Fault{Kind: core.WedgeSM, Target: 0, At: 2000}) }
	}
	r := experiments.NewRunner(experiments.Options{Benchmarks: benches, Jobs: 1, Arm: wedgeBH})
	e := experiments.SuiteOn(nuba.NUBAConfig().Scale(0.125))
	report, err := r.Execute(context.Background(), e)
	var stdout, stderr bytes.Buffer
	err = experiments.PrintReport(&stdout, &stderr, e, report, err, map[string]bool{})
	if err == nil || !strings.Contains(err.Error(), "1 job(s) failed") {
		t.Errorf("a batch with a failed job must be an error, got %v", err)
	}
	table, failures, ok := strings.Cut(stdout.String(), "FAILED JOBS (1)")
	if !ok || !regexp.MustCompile(`(?m)^LEU +[1-9]`).MatchString(table) || strings.Contains(table, "BH") ||
		!strings.Contains(failures, "BH") || !strings.Contains(failures, "watchdog") {
		t.Errorf("want LEU's row and a FAILED JOBS section naming BH's hang:\n%s", stdout.String())
	}
	if got := stderr.String(); !strings.HasPrefix(got, "BH on NUBA/") || strings.Count(got, "hang detected at cycle") != 1 ||
		!strings.Contains(got, "\n  SM 0 ") {
		t.Errorf("stderr must carry BH's hang report once, naming the wedged SM:\n%s", got)
	}
}

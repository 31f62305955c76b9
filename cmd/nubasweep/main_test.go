package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/core"
	"github.com/nuba-gpu/nuba/internal/experiments"
)

// TestSweepFrontDoor is the CLI smoke test of the experiment front door:
// the binary is built once and run on one small experiment with one and
// with four workers, on a list of two that share their runs, on all of
// them, on BP's page-size sweep, on an experiment that does not exist
// (alone and in a list), on a scale that is not a GPU, with the retired
// -watchdog flag, and asked for its list. An experiment whose job hangs is
// TestSweepWithAHangingJob.
func TestSweepFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nubasweep")
	}
	bin := filepath.Join(t.TempDir(), "nubasweep")
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
			t.Fatalf("nubasweep %s: %v", strings.Join(args, " "), err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}

	serial, stderr, code := run("-exp", "fig12", "-bench", "BP", "-scale", "0.125", "-jobs", "1")
	if code != 0 || !strings.Contains(serial, "BP") {
		t.Fatalf("fig12 -jobs 1: exit %d\n%s%s", code, serial, stderr)
	}
	if pooled, stderr, code := run("-exp", "fig12", "-bench", "BP", "-scale", "0.125", "-jobs", "4"); code != 0 || pooled != serial {
		t.Errorf("fig12 -jobs 4: exit %d, stdout differs from -jobs 1's:\n%s%s\n-jobs 1:\n%s", code, pooled, stderr, serial)
	}

	// A list is its experiments' reports joined by a blank line, on one
	// runner: fig8 and fig9 read the same four iso-resource runs.
	small := []string{"-bench", "BH", "-scale", "0.125"}
	fig8, _, _ := run(append([]string{"-exp", "fig8"}, small...)...)
	fig9, _, _ := run(append([]string{"-exp", "fig9"}, small...)...)
	both, stderr, code := run(append([]string{"-exp", "fig8,fig9", "-v"}, small...)...)
	if code != 0 || both != fig8+"\n"+fig9 {
		t.Errorf("-exp fig8,fig9: exit %d, stdout is not the two single reports joined by a blank line:\n%s", code, both)
	}
	if !strings.Contains(stderr, "[4/4]") || strings.Contains(stderr, "/8]") {
		t.Errorf("-exp fig8,fig9 must simulate the shared runs once (4 jobs):\n%s", stderr)
	}

	all, stderr, code := run("-exp", "all", "-bench", "BH", "-scale", "0.125", "-jobs", "2")
	if code != 0 {
		t.Errorf("-exp all: exit %d\n%s", code, stderr)
	}
	var headers, want []string
	for _, line := range strings.Split(all, "\n") {
		if strings.HasPrefix(line, "== ") {
			headers = append(headers, line)
		}
	}
	for _, e := range experiments.All() {
		want = append(want, "== "+e.Title+" ==")
	}
	if strings.Join(headers, "\n") != strings.Join(want, "\n") {
		t.Errorf("-exp all must print every experiment once, in presentation order; got headers:\n%s", strings.Join(headers, "\n"))
	}

	// BP on NUBA with 2 MB pages, where replica slices forward most.
	if stdout, stderr, code := run("-exp", "fig14-page", "-bench", "BP", "-scale", "0.125"); code != 0 ||
		!strings.Contains(stdout, "2 MB ") || stderr != "" {
		t.Errorf("fig14-page on BP: exit %d\n%s%s", code, stdout, stderr)
	}
	if stdout, stderr, code := run("-exp", "fig12", "-bench", "BP", "-watchdog", "1"); code != 2 || stdout != "" ||
		!strings.Contains(stderr, "flag provided but not defined: -watchdog") {
		t.Errorf("-watchdog: exit %d, stdout %q, stderr %q; the guard is not an option", code, stdout, stderr)
	}

	for name, args := range map[string][]string{
		"unknown experiment": {"-exp", "nosuch"},
		"unknown in a list":  {"-exp", "table2,nosuch"},
		"zero scale":         {"-exp", "fig12", "-bench", "BP", "-scale", "0"},
	} {
		stdout, stderr, code := run(args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "nubasweep: ") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line on stderr", name, code, stdout, stderr)
		}
	}

	list, stderr, code := run("-list")
	if code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, stderr)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(list, "\n  "+e.Name+" ") {
			t.Errorf("-list does not name %s:\n%s", e.Name, list)
		}
	}
}

// TestParseScale: -scale takes the factors that give whole SM, LLC slice
// and channel counts, and refuses the others naming what they would give
// (Config.Scale truncates, which breaks every bandwidth per SM).
func TestParseScale(t *testing.T) {
	for _, tc := range []struct{ scale, err string }{
		{"2", "<nil>"}, {"1", "<nil>"}, {"0.5", "<nil>"}, {"0.25", "<nil>"}, {"0.125", "<nil>"},
		{"0", "-scale must be positive (got 0)"},
		{"-1", "-scale must be positive (got -1)"},
		{"0.7", "-scale 0.7 gives 44.8 SMs, 44.8 LLC slices and 22.4 channels"},
		{"0.3", "-scale 0.3 gives 19.2 SMs, 19.2 LLC slices and 9.6 channels"},
	} {
		fs := flag.NewFlagSet("nubasweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parse(fs, []string{"-exp", "fig12", "-scale", tc.scale})
		if !strings.HasPrefix(fmt.Sprint(err), tc.err) {
			t.Errorf("-scale %s: error %v, want %q", tc.scale, err, tc.err)
		}
	}
}

// TestSweepWithAHangingJob: an experiment whose only benchmark hangs is its
// FAILED JOBS section alone on stdout, the hang's full report on stderr and
// an error, which sweep turns into exit status 1. fig8 and fig9 share that
// job, so the second prints its section again but not the report. The hang
// is a wedged SM, injected through the runner's Arm hook into BH on one of
// the four configurations.
func TestSweepWithAHangingJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	bh, err := nuba.BenchmarkByAbbr("BH")
	if err != nil {
		t.Fatal(err)
	}
	wedged := nuba.NUBAConfig().Scale(0.125)
	arm := func(cfg, _ string) func(*nuba.System) error {
		if cfg != wedged.Name() {
			return nil
		}
		return func(g *nuba.System) error { return g.Inject(0, core.Fault{Kind: core.WedgeSM, Target: 0, At: 2000}) }
	}
	var exps []experiments.Experiment
	for _, name := range []string{"fig8", "fig9"} {
		e, err := experiments.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	r := experiments.NewRunner(experiments.Options{Scale: 0.125, Benchmarks: []nuba.Benchmark{bh}, Jobs: 1, Arm: arm})
	var stdout, stderr bytes.Buffer
	if status := sweep(context.Background(), &command{exps: exps}, r, &stdout, &stderr); status != 1 {
		t.Errorf("exit status %d, want 1: the reports are not whole", status)
	}
	if got := stdout.String(); strings.Count(got, "FAILED JOBS (1)") != 2 || strings.Count(got, "core: watchdog:") != 2 {
		t.Errorf("want each experiment's FAILED JOBS section naming the hang:\n%s", got)
	}
	if got := stderr.String(); strings.Count(got, "hang detected at cycle") != 1 || !strings.Contains(got, "\n  SM 0 ") ||
		strings.Count(got, "every benchmark failed") != 2 {
		t.Errorf("stderr must carry the hang report once and one line per experiment:\n%s", got)
	}
}

package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/experiments"
)

// TestSweepFrontDoor is the CLI smoke test of the experiment front door:
// the binary is built once and run on one small experiment with one and
// with four workers, on a list of two that share their runs, on all of
// them, on one whose only job hangs, on an experiment that does not exist
// (alone and in a list), on a scale that is not a GPU, with the retired
// -watchdog flag, and asked for its list.
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

	// BP on NUBA with 2 MB pages wedges at this scale (the NUBA + MDR
	// deadlock): with no flag set it is a FAILED JOBS line and, on stderr,
	// the full hang report — not a spin to MaxCycles. Every full slice's
	// arbiter is parked on its MSHR file, so every wake hint is Never and
	// the watchdog calls it a deadlock at the first batch boundary, without
	// waiting out its window.
	stdout, stderr, code := run("-exp", "fig14-page", "-bench", "BP", "-scale", "0.125")
	if code != 1 || !strings.Contains(stdout, "FAILED JOBS (1)") ||
		!strings.Contains(stdout, "core: watchdog: deadlock at cycle") ||
		!strings.Contains(stderr, "hang detected at cycle") || !strings.Contains(stderr, " arb-parked ") {
		t.Errorf("fig14-page on BP: exit %d\n%s%s", code, stdout, stderr)
	}
	if stdout, stderr, code = run("-exp", "fig12", "-bench", "BP", "-watchdog", "1"); code != 2 || stdout != "" ||
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

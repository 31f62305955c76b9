package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintFrontDoor is the CLI smoke test: the binary is built once and
// run on this repository — clean, with nothing on the command line —
// and with the flag and the package argument it once took, which are
// usage errors now.
func TestLintFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nubalint")
	}
	bin := filepath.Join(t.TempDir(), "nubalint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns the tool's stdout, stderr and exit status when started
	// in dir.
	run := func(dir string, args ...string) (string, string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("nubalint %s: %v", strings.Join(args, " "), err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}
	root := filepath.Join("..", "..")

	if stdout, stderr, code := run(root); code != 0 || stdout != "" {
		t.Errorf("the repository must lint clean: exit %d\n%s%s", code, stdout, stderr)
	}
	for _, args := range [][]string{{"-policy", "x"}, {"./internal/core"}} {
		stdout, stderr, code := run(root, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "nubalint: ") {
			t.Errorf("nubalint %s: exit %d, stdout %q, stderr %q; want exit 2 and one line on stderr",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
}

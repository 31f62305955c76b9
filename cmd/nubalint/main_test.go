package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintFrontDoor is the CLI smoke test: the binary is built once and
// run on this repository (clean), on the analyzer's fixture module (its
// golden findings) and with a policy file that does not exist.
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

	if stdout, stderr, code := run(root, "./..."); code != 0 || stdout != "" {
		t.Errorf("the repository must lint clean: exit %d\n%s%s", code, stdout, stderr)
	}

	golden, err := os.ReadFile(filepath.Join(root, "internal", "lint", "testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run(filepath.Join(root, "internal", "lint", "testdata", "src"))
	if code != 1 || stdout != string(golden) {
		t.Errorf("fixture module: exit %d, stdout differs from golden.txt:\n%s%s", code, stdout, stderr)
	}

	stdout, stderr, code = run(root, "-policy", "no-such.policy")
	if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "nubalint: ") {
		t.Errorf("missing policy: exit %d, stdout %q, stderr %q; want exit 2 and one line on stderr", code, stdout, stderr)
	}
}

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

// TestDocsCheck is the CLI smoke test of the drift checker: the binary
// is built once and run on the repository, which must be clean, and on
// a temporary root whose README drifts in each way the tool checks.
func TestDocsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nubadocs")
	}
	bin := filepath.Join(t.TempDir(), "nubadocs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run returns the tool's combined output and exit status.
	run := func(root string) (string, int) {
		t.Helper()
		var out bytes.Buffer
		cmd := exec.Command(bin, "-root", root)
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("nubadocs -root %s: %v", root, err)
		}
		return out.String(), cmd.ProcessState.ExitCode()
	}

	if out, code := run(filepath.Join("..", "..")); code != 0 {
		t.Errorf("repository docs: exit %d\n%s", code, out)
	}

	root := t.TempDir()
	for name, content := range map[string]string{
		"cmd/tool/main.go": "package main\n\nimport \"flag\"\n\nvar real = flag.String(\"real\", \"\", \"\")\n\n" +
			"func main() { fs := flag.NewFlagSet(\"tool\", flag.ExitOnError); fs.Bool(\"set\", false, \"\"); more(fs) }\n\n" +
			"func more(fs *flag.FlagSet) { fs.Int(\"param\", 0, \"\") }\n\n" +
			"type opts struct{}\n\nfunc (opts) String(s string) string { return s }\n\nfunc ghost() { var o opts; o.String(\"ghost\") }\n",
		"Makefile": "GO ?= go\n\n.PHONY: check\n\ncheck:\n\t$(GO) vet ./...\n",
		"DESIGN.md": "# design\n\n## 1. What we build\n\n* **NoC.** Links.\n\n### Parks\n\n" +
			"See (§1, \"NoC\"), the paper's (§7.6) and (§2).\n",
		"EXPERIMENTS.md":        "# experiments\n",
		"internal/sim/sim.go":   "package sim\n\n// Drain drains.\nfunc Drain() {}\n\n// WakeSet wakes.\ntype WakeSet struct{ nextAt int }\n",
		"cmd/tool/main_test.go": "package main\n\nimport \"testing\"\n\nfunc TestRealThing(t *testing.T) {}\n",
		"README.md": "Run `tool -real x -set -param 1` or `make check`; see [the design](DESIGN.md).\n\n" +
			"Then `tool -nosuchflag -ghost`, [a page](docs/MISSING.md) and:\n\n" +
			"```sh\nmake nosuchtarget   # retired\n```\n\n" +
			"Held by `TestRealThing`, `TestReal*` and `tool.TestHelper()`; not by `TestNoSuchThing` or `BenchmarkNo*`.\n\n" +
			"Why: DESIGN.md §1; the cycle loop was DESIGN.md\n§9 before it moved.\n\n" +
			"Held there: DESIGN.md §1 \"Parks\", not DESIGN.md §1\n\"Parsk\".\n\n" +
			"```\nPLACEHOLDER_FIG10 MeanSpeedup\n```\n\n" +
			"Go names: `sim.Drain`, `WakeSet.nextAt`, `flag.NewFlagSet`, `sim.flits`, `main.go`, `NUBA`, `SMs`, `T`; " +
			"not `sendWake` or `sim.Nope`, nor\n\n```go\nsim.Drain(lostName)\n```\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, code := run(root)
	if code != 1 {
		t.Errorf("drifted docs: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"README.md: flag -nosuchflag is not defined",
		"README.md: flag -ghost is not defined",
		`README.md: link target "docs/MISSING.md" does not resolve`,
		"README.md: make nosuchtarget is not a target",
		"README.md: TestNoSuchThing is not declared",
		"README.md: BenchmarkNo* is not declared",
		"README.md: §9 is not a numbered section",
		"DESIGN.md: §2 is not a numbered section",
		`README.md: §1 "Parsk" names no sub-section of DESIGN.md §1`,
		"README.md: PLACEHOLDER_FIG10 stands where generated output belongs",
		"README.md: sendWake is not declared in the module",
		"README.md: sim.Nope is not declared in the module",
		"README.md: lostName is not declared in the module",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not name %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "nubadocs:"); n != 13 {
		t.Errorf("%d problems reported, want exactly the 13 seeded ones:\n%s", n, out)
	}
}

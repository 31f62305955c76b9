package lint

import (
	"path/filepath"
	"testing"
)

// TestRepoLintsClean runs the real analyzer, with the real committed
// lint.policy, over the real module — the same invocation as
// `go run ./cmd/nubalint ./...` — under all five rules. The repo
// must stay finding-free: a new unsorted map range on the report path,
// a stray time.Now in a model package, an import edge outside the DAG
// (a non-pool import of the fault-injection harness is one), a config
// knob no simulator package reads or a Stats counter nothing writes or
// reports fails this test (and with it `make check` and CI).
func TestRepoLintsClean(t *testing.T) {
	if n := len(AllRules()); n != 5 {
		t.Fatalf("AllRules() has %d rules, want 5; update this test and the docs", n)
	}
	mod, err := FindModule("../..")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pol, err := ParsePolicy(filepath.Join(mod.Dir, "lint.policy"))
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	prog, err := Load(mod, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing part of the module", len(prog.Pkgs))
	}
	diags, err := Run(prog, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}

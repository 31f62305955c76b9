package lint

import "testing"

// TestRepoLintsClean runs the real analyzer, under RepoPolicy, over the
// real module with all five rules. The repo must stay finding-free: a
// new unsorted map range on the report path,
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
	prog, err := Load(mod)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing part of the module", len(prog.Pkgs))
	}
	for _, d := range Run(prog, RepoPolicy) {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}

// TestRepoPolicyScope pins the determinism rules' scope as a property of
// where a package lives, not of a list somebody keeps: everything under
// internal/ but the two tooling packages — a package nobody has created
// yet included — and nothing above it.
func TestRepoPolicyScope(t *testing.T) {
	for pkg, want := range map[string]bool{
		"internal/core":       true,
		"internal/brand-new":  true,
		"internal/lint":       false,
		"internal/hostprof":   false,
		".":                   false,
		"cmd/nubasim":         false,
		"examples/quickstart": false,
	} {
		for _, rule := range []string{RuleMapRange, RuleWallclock} {
			if got := RepoPolicy.InScope(rule, pkg); got != want {
				t.Errorf("InScope(%s, %s) = %v, want %v", rule, pkg, got, want)
			}
		}
		if !RepoPolicy.InScope(RuleLayering, pkg) {
			t.Errorf("import-layering does not apply to %s; it applies everywhere", pkg)
		}
	}
}

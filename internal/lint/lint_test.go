package lint

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePolicy is the policy of the testdata/src module: simcore and
// clockok are its "model" packages, engine sits above them and app may
// only reach engine; model reads params and writes stats, report reads
// stats.
var fixturePolicy = &Policy{
	Layers: map[string][]string{
		"simcore":  nil,
		"clockok":  nil,
		"engine":   {"clockok", "simcore"},
		"app":      {".", "engine"},
		"dispatch": nil, // exercises the use graph's indirect call edges
		"params":   nil,
		"stats":    nil,
		"model":    {"params", "stats"},
		"report":   {"stats"},
	},
	Simulation: func(pkg string) bool { return pkg == "simcore" || pkg == "clockok" },
	Allow:      map[string][]string{RuleWallclock: {"clockok/clock.go"}},
	Config:     Audit{Structs: []string{"params.Config"}, Readers: []string{"model"}},
	Metrics:    Audit{Structs: []string{"stats.Stats"}, Writers: []string{"model"}, Readers: []string{"report"}},
}

// loadFixture loads the testdata/src module (a self-contained fixture
// module with its own go.mod).
func loadFixture(t *testing.T) *Program {
	t.Helper()
	mod, err := FindModule("testdata/src")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if mod.Path != "example.com/fixture" {
		t.Fatalf("fixture module path = %q", mod.Path)
	}
	prog, err := Load(mod)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return prog
}

// render prints findings the way the CLI does.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// renderFixture runs one fully independent analysis of the fixture, on
// its own load.
func renderFixture(t *testing.T) string {
	t.Helper()
	return render(Run(loadFixture(t), fixturePolicy))
}

// TestFixtureGolden locks the analyzer's full output on the fixture
// module against testdata/golden.txt: every rule's positive hit, every
// clean variant, and the exact diagnostic text.
func TestFixtureGolden(t *testing.T) {
	got := renderFixture(t)

	goldenPath := filepath.Join("testdata", "golden.txt")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the output below)\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("fixture diagnostics diverge from %s.\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestEveryRuleFires asserts the fixture exercises every rule, so a rule
// that silently stops matching cannot hide behind a stale golden file.
func TestEveryRuleFires(t *testing.T) {
	diags := Run(loadFixture(t), fixturePolicy)
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Rule] = true
	}
	for _, rule := range AllRules() {
		if !seen[rule] {
			t.Errorf("fixture produced no %s finding", rule)
		}
	}
}

// TestSuppressionsHold asserts the sanctioned and allowlisted sites stay
// clean: the sorted-keys idiom in Keys and the allowlisted
// clockok/clock.go.
func TestSuppressionsHold(t *testing.T) {
	diags := Run(loadFixture(t), fixturePolicy)
	for _, d := range diags {
		if d.File == "clockok/clock.go" {
			t.Errorf("allowlisted file flagged: %s", d)
		}
	}
	src, err := os.ReadFile(filepath.Join("testdata", "src", "simcore", "simcore.go"))
	if err != nil {
		t.Fatal(err)
	}
	cleanLines := make(map[int]bool)
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "sort.Strings(ks)") {
			// The sorted collection loop above the sort call is clean.
			cleanLines[i-1] = true
		}
	}
	for _, d := range diags {
		if d.File == "simcore/simcore.go" && cleanLines[d.Line] {
			t.Errorf("idiomatic site flagged: %s", d)
		}
	}
}

// TestJSONDeterministic asserts two fully independent analyses of the
// same tree render byte-identical, identically ordered output — (file,
// line, col, rule), no map-iteration noise anywhere in the engine. This
// is what lets CI diff nubalint output across runs. (The name is
// historical: the text form is the only form.)
func TestJSONDeterministic(t *testing.T) {
	first, second := renderFixture(t), renderFixture(t)
	if first != second {
		t.Errorf("output differs across runs:\n--- 1 ---\n%s--- 2 ---\n%s", first, second)
	}
}

// TestPolicyLookups pins the three questions the rules ask a policy.
func TestPolicyLookups(t *testing.T) {
	pol := &Policy{
		Layers:     map[string][]string{"a": {"b", "c"}, "cmd/*": {"."}},
		Simulation: func(string) bool { return true },
		Allow:      map[string][]string{RuleWallclock: {"a/clock.go"}},
	}
	if !pol.InScope(RuleWallclock, "anything") {
		t.Error("Simulation said yes and no-wallclock is out of scope")
	}
	if !pol.Allowed(RuleWallclock, "a/clock.go", "a") || pol.Allowed(RuleMapRange, "a/clock.go", "a") {
		t.Error("allow entry did not match its rule and file only")
	}
	if allowed, declared := pol.LayerFor("a"); !declared || !allowed["b"] || !allowed["c"] || allowed["d"] {
		t.Errorf("LayerFor(a) = %v, %v", allowed, declared)
	}
	if allowed, declared := pol.LayerFor("cmd/x"); !declared || !allowed["."] {
		t.Errorf("LayerFor(cmd/x) = %v, %v; the glob key did not match", allowed, declared)
	}
	if _, declared := pol.LayerFor("z"); declared {
		t.Error("LayerFor(z) is declared by no key")
	}
}

// TestStalePolicyEntryIsAFinding asserts a policy entry that names
// nothing in the module — a typo, or a package since deleted — is one
// finding naming it, not a rule that silently covers less.
func TestStalePolicyEntryIsAFinding(t *testing.T) {
	prog := loadFixture(t)
	clean := render(Run(prog, fixturePolicy))
	for _, tc := range []struct {
		name   string
		mutate func(*Policy)
		want   string
	}{
		{"layer subject", func(p *Policy) { p.Layers["internal/ghost"] = []string{"simcore"} },
			"policy: layer entry internal/ghost matches no package or file of the module\n"},
		{"layer value", func(p *Policy) { p.Layers["engine"] = []string{"clockok", "simcore", "internal/cahce"} },
			"policy: layer engine allows internal/cahce, which is not a package of the module\n"},
		{"allow", func(p *Policy) {
			p.Allow = map[string][]string{RuleWallclock: {"clockok/clock.go", "internal/experiments/progres.go"}}
		}, "policy: no-wallclock allow entry internal/experiments/progres.go matches no package or file of the module\n"},
		{"allow rule", func(p *Policy) {
			p.Allow = map[string][]string{RuleWallclock: {"clockok/clock.go"}, "no-wallclok": {"clockok"}}
		}, "policy: allow entry for unknown rule no-wallclok\n"},
		{"struct", func(p *Policy) { p.Config.Structs = []string{"params.Config", "params.Confg"} },
			"policy: config-liveness struct params.Confg is not a struct type of the module (want pkg.Type)\n"},
		{"writer", func(p *Policy) { p.Metrics.Writers = []string{"model", "modle"} },
			"policy: metrics-liveness writer modle matches no package or file of the module\n"},
	} {
		pol := *fixturePolicy
		pol.Layers = maps.Clone(pol.Layers)
		tc.mutate(&pol)
		// A finding with no position sorts first; the rest must be the
		// fixture's own, unmoved.
		if got := render(Run(prog, &pol)); got != tc.want+clean {
			t.Errorf("%s: got\n%s\nwant the clean output preceded by\n%s", tc.name, got, tc.want)
		}
	}
}

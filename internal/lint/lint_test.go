package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads the testdata/src module (a self-contained fixture
// module with its own go.mod and lint.policy).
func loadFixture(t *testing.T) (*Program, *Policy) {
	t.Helper()
	mod, err := FindModule("testdata/src")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if mod.Path != "example.com/fixture" {
		t.Fatalf("fixture module path = %q", mod.Path)
	}
	prog, err := Load(mod, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pol, err := ParsePolicy(filepath.Join(mod.Dir, "lint.policy"))
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	return prog, pol
}

// renderFixture runs one fully independent analysis of the fixture —
// its own load, its own policy parse — and renders it the way the CLI
// prints it.
func renderFixture(t *testing.T) string {
	t.Helper()
	prog, pol := loadFixture(t)
	diags, err := Run(prog, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixtureGolden locks the analyzer's full output on the fixture
// module against testdata/golden.txt: every rule's positive hit, every
// suppression, and the exact diagnostic text.
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

// TestEveryRuleFires asserts the fixture exercises every rule
// (plus the directive pseudo-rule), so a rule that silently stops
// matching cannot hide behind a stale golden file.
func TestEveryRuleFires(t *testing.T) {
	prog, pol := loadFixture(t)
	diags, err := Run(prog, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Rule] = true
	}
	for _, rule := range append(AllRules(), RuleDirective) {
		if !seen[rule] {
			t.Errorf("fixture produced no %s finding", rule)
		}
	}
}

// TestSuppressionsHold asserts the directive-suppressed and allowlisted
// sites stay clean: the suppressed map range in SumIgnored, the
// same-line time.Since in StampIgnored, the sorted-keys idiom in Keys,
// and the allowlisted clockok/clock.go.
func TestSuppressionsHold(t *testing.T) {
	prog, pol := loadFixture(t)
	diags, err := Run(prog, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
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
		if strings.Contains(line, "//nubalint:ignore") || strings.Contains(line, "sort.Strings(ks)") {
			// The directive line, the line after it, and the sorted
			// collection loop above the sort call must all be clean.
			cleanLines[i+1] = true
			cleanLines[i+2] = true
			cleanLines[i-1] = true
		}
	}
	for _, d := range diags {
		if d.File == "simcore/simcore.go" && cleanLines[d.Line] {
			t.Errorf("suppressed or idiomatic site flagged: %s", d)
		}
	}

	// The liveness suppression must hold too: the Intentional knob
	// carries an ignore directive.
	for _, d := range diags {
		if strings.Contains(d.Message, "Intentional") {
			t.Errorf("ignored config knob flagged: %s", d)
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

// TestDirectiveNamingUnknownRule asserts an ignore directive for a rule
// that does not exist (a typo, or a rule since deleted) is a finding,
// not a silent no-op.
func TestDirectiveNamingUnknownRule(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go",
		"package x\n\n//nubalint:ignore retired-rule the rule is gone\nvar V int\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	collectDirectives(fset, f, func(_ token.Pos, rule, msg string) { got = append(got, rule+": "+msg) })
	if len(got) != 1 || got[0] != "directive: directive names unknown rule retired-rule" {
		t.Errorf("findings = %q, want one unknown-rule directive finding", got)
	}
}

// TestPolicyParseErrors asserts the policy parser rejects malformed and
// unknown input instead of silently ignoring it.
func TestPolicyParseErrors(t *testing.T) {
	bad := []string{
		"layer internal/core internal/sim",  // missing '='
		"scope made-up-rule = internal/sim", // unknown rule
		"allow made-up-rule = x.go",         // unknown rule
		"frobnicate a = b",                  // unknown directive
		"layer a = b\nlayer a = c",          // duplicate layer
		"seams no-wallclock = a.T.F",        // retired verb
		"funcs no-wallclock = a.T.F",        // retired verb
	}
	for _, src := range bad {
		if _, err := ParsePolicyData(src, "test.policy"); err == nil {
			t.Errorf("ParsePolicyData(%q) succeeded, want error", src)
		}
	}
	good := "# comment\n\nlayer a = b c\nscope no-wallclock = *\nallow no-wallclock = a/clock.go\n"
	pol, err := ParsePolicyData(good, "test.policy")
	if err != nil {
		t.Fatalf("ParsePolicyData(good): %v", err)
	}
	if !pol.InScope(RuleWallclock, "anything") {
		t.Error("scope '*' did not match")
	}
	if !pol.Allowed(RuleWallclock, "a/clock.go", "a") {
		t.Error("allow entry did not match")
	}
	if allowed, declared := pol.LayerFor("a"); !declared || !allowed["b"] || !allowed["c"] || allowed["d"] {
		t.Errorf("LayerFor(a) = %v, %v", allowed, declared)
	}
}

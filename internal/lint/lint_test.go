package lint

import (
	"bytes"
	"encoding/json"
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

// TestFixtureGolden locks the analyzer's full output on the fixture
// module against testdata/golden.txt: every rule's positive hit, every
// suppression, and the exact diagnostic text.
func TestFixtureGolden(t *testing.T) {
	prog, pol := loadFixture(t)
	diags, err := Run(prog, pol, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()

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
	diags, err := Run(prog, pol, nil)
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
	diags, err := Run(prog, pol, nil)
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

	// The liveness and unit suppressions must hold too: the Intentional
	// knob carries an ignore directive, and units.Suppressed mixes units
	// under one.
	for _, d := range diags {
		if strings.Contains(d.Message, "Intentional") {
			t.Errorf("ignored config knob flagged: %s", d)
		}
		if d.Rule == RuleUnits && d.Message == "mixed units in '-': byte vs cycle" {
			t.Errorf("suppressed unit mix flagged: %s", d)
		}
	}
}

// TestRuleSelection asserts -rules narrows the run to the chosen rule
// (malformed directives are still always reported).
func TestRuleSelection(t *testing.T) {
	prog, pol := loadFixture(t)
	diags, err := Run(prog, pol, []string{RuleLayering})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var layering int
	for _, d := range diags {
		switch d.Rule {
		case RuleLayering:
			layering++
		case RuleDirective:
		default:
			t.Errorf("unselected rule reported: %s", d)
		}
	}
	if layering != 1 {
		t.Errorf("import-layering findings = %d, want 1", layering)
	}

	if _, err := Run(prog, pol, []string{"bogus-rule"}); err == nil {
		t.Error("Run accepted an unknown rule")
	}
}

// TestDiagnosticJSON asserts the -json shape stays stable, severity
// field included.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Rule: RuleMapRange,
		Severity: SeverityError, Message: "m"}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a/b.go","line":3,"col":7,"rule":"nondet-map-range","severity":"error","message":"m"}`
	if string(data) != want {
		t.Errorf("json = %s, want %s", data, want)
	}
}

// TestJSONDeterministic asserts two fully independent analyses of the
// same tree marshal to byte-identical JSON: same ordering (file, line,
// col, rule), same severity, no map-iteration noise anywhere in the
// engine. This is what lets CI diff nubalint -json output across runs.
func TestJSONDeterministic(t *testing.T) {
	var outs [][]byte
	for i := 0; i < 2; i++ {
		prog, pol := loadFixture(t)
		diags, err := Run(prog, pol, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		data, err := json.Marshal(diags)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, data)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("JSON output differs across runs:\n--- 1 ---\n%s\n--- 2 ---\n%s", outs[0], outs[1])
	}
	for _, d := range mustUnmarshal(t, outs[0]) {
		if d.Severity != SeverityError {
			t.Errorf("finding %s has severity %q, want %q", d, d.Severity, SeverityError)
		}
	}
}

func mustUnmarshal(t *testing.T, data []byte) []Diagnostic {
	t.Helper()
	var ds []Diagnostic
	if err := json.Unmarshal(data, &ds); err != nil {
		t.Fatal(err)
	}
	return ds
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
		"seams hint-purity = a.T.F",         // retired verb
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

	// The funcs verb (hint-purity roots) round-trips in order.
	funcs := "funcs hint-purity = pkg/a.T.Hint pkg/b.Scan\n"
	pol, err = ParsePolicyData(funcs, "test.policy")
	if err != nil {
		t.Fatalf("ParsePolicyData(funcs): %v", err)
	}
	got := pol.Funcs(RuleHintPurity)
	if len(got) != 2 || got[0] != "pkg/a.T.Hint" || got[1] != "pkg/b.Scan" {
		t.Errorf("Funcs(hint-purity) = %v", got)
	}
	if _, err := ParsePolicyData("funcs made-up-rule = a.B", "test.policy"); err == nil {
		t.Error("funcs verb accepted an unknown rule")
	}
}

package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, in vet style: file:line:col: rule: message.
// File is module-relative so output is stable across checkouts.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Run analyzes the program's packages under the policy with the given
// rules (nil or empty = all) and returns the findings sorted by
// (file, line, col, rule). Malformed //nubalint:ignore directives and
// nubaunit annotations are always reported, whatever the rule
// selection.
//
// Per-package rules (nondet-map-range, no-wallclock, import-layering,
// unit-consistency) run package by package; the liveness rules then
// run once over the module-wide use graph (see usegraph.go), so a
// config knob read only from a package the analysis never loaded still
// counts as dead.
func Run(prog *Program, pol *Policy, rules []string) ([]Diagnostic, error) {
	if len(rules) == 0 {
		rules = AllRules()
	}
	selected := make(map[string]bool, len(rules))
	for _, r := range rules {
		if !knownRule(r) {
			return nil, fmt.Errorf("lint: unknown rule %q (have %v)", r, AllRules())
		}
		selected[r] = true
	}

	// Index every file's suppression directives up front — module-wide
	// rules emit into files of packages other than the one being
	// walked, and a malformed directive is itself a finding.
	var diags []Diagnostic
	rawEmit := func(pos token.Pos, rule, msg string) {
		posn := prog.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			File: prog.RelFile(pos), Line: posn.Line, Col: posn.Column,
			Rule: rule, Severity: severityOf(rule), Message: msg,
		})
	}
	indexes := make(map[string]*directiveIndex) // by module-relative file
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			indexes[prog.RelFile(f.Pos())] = collectDirectives(prog.Fset, f, rawEmit)
		}
	}
	emit := emitFunc(func(pos token.Pos, rule, msg string) {
		rel := prog.RelFile(pos)
		line := prog.Fset.Position(pos).Line
		if idx, ok := indexes[rel]; ok && idx.suppresses(rule, line) {
			return
		}
		rawEmit(pos, rule, msg)
	})

	// The unit annotation table is built unconditionally: a malformed
	// annotation must surface even when unit-consistency is deselected.
	units := collectUnits(prog, emit)

	for _, pkg := range prog.Pkgs {
		c := &pkgCtx{prog: prog, pol: pol, pkg: pkg, emitPos: emit}
		for _, r := range rules {
			if fn, ok := ruleFuncs[r]; ok {
				fn(c)
			}
		}
		if selected[RuleUnits] {
			checkUnits(c, units)
		}
	}

	pc := &progCtx{prog: prog, pol: pol, emitPos: emit}
	for _, r := range rules {
		if fn, ok := progRuleFuncs[r]; ok {
			if err := fn(pc); err != nil {
				return nil, err
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

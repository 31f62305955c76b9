package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
)

// Diagnostic is one finding, in vet style: file:line:col: rule: message.
// File is module-relative so output is stable across checkouts; a
// finding about the policy itself has no position and prints as
// rule: message.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	if d.File == "" {
		return d.Rule + ": " + d.Message
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Run analyzes the program's packages under the policy and returns the
// findings sorted by (file, line, col, rule, message). Malformed
// //nubalint:ignore directives are findings too, and so is a policy
// entry that names nothing in the module.
//
// The per-package rules (nondet-map-range, no-wallclock,
// import-layering) run package by package; the liveness rules then run
// once over the module-wide use graph (see usegraph.go), so a config
// knob read only from a package the analysis never loaded still counts
// as dead.
func Run(prog *Program, pol *Policy) []Diagnostic {
	// Index every file's suppression directives up front — module-wide
	// rules emit into files of packages other than the one being
	// walked, and a malformed directive is itself a finding.
	var diags []Diagnostic
	rawEmit := func(pos token.Pos, rule, msg string) {
		posn := prog.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			File: prog.RelFile(pos), Line: posn.Line, Col: posn.Column,
			Rule: rule, Message: msg,
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

	policyFinding := func(msg string) {
		diags = append(diags, Diagnostic{Rule: RulePolicy, Message: msg})
	}
	checkPolicy(prog, pol, policyFinding)

	for _, pkg := range prog.Pkgs {
		c := &pkgCtx{prog: prog, pol: pol, pkg: pkg, emitPos: emit}
		checkMapRange(c)
		checkWallclock(c)
		checkLayering(c)
	}

	pc := &progCtx{prog: prog, emitPos: emit, stale: policyFinding}
	checkConfigLiveness(pc, pol.Config)
	checkMetricsLiveness(pc, pol.Metrics)

	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Rule, b.Rule), cmp.Compare(a.Message, b.Message))
	})
	return diags
}

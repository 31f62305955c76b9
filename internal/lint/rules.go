package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names, as spelled in a Policy and in findings. What each has
// caught, and why it exists, is DESIGN.md §7's table.
const (
	RuleMapRange    = "nondet-map-range" // range over a map in simulation code
	RuleWallclock   = "no-wallclock"     // time.Now/Since/Until or math/rand in simulation code
	RuleLayering    = "import-layering"  // a module-internal import outside Policy.Layers
	RuleConfigLive  = "config-liveness"  // an audited config field no model package reads
	RuleMetricsLive = "metrics-liveness" // an audited counter never written by the model, or never reported

	// The pseudo-rule reports the analyzer's own input; it cannot be
	// scoped.
	RulePolicy = "policy" // a Policy entry that names nothing in the module
)

// AllRules lists the rules in documentation order.
func AllRules() []string {
	return []string{
		RuleMapRange, RuleWallclock, RuleLayering,
		RuleConfigLive, RuleMetricsLive,
	}
}

// emitFunc reports a diagnostic at a token position (bound in Run).
type emitFunc func(pos token.Pos, rule, msg string)

// pkgCtx bundles what every per-package rule needs for one package.
type pkgCtx struct {
	prog    *Program
	pol     *Policy
	pkg     *Package
	emitPos emitFunc
}

// --- nondet-map-range ------------------------------------------------

func checkMapRange(c *pkgCtx) {
	if !c.pol.InScope(RuleMapRange, c.pkg.RelName()) {
		return
	}
	for _, f := range c.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := c.pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			c.emitPos(rs.For, RuleMapRange,
				"range over map has nondeterministic iteration order; keep what is visited in a slice")
			return true
		})
	}
}

// objOf resolves an identifier to its object, whether it is a use or a
// definition site.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// pkgFuncCall returns (package import path's base spelling, function
// name) for calls of the form pkg.Func(...), resolving pkg through the
// type info so shadowed identifiers do not fool it. It returns "" for
// anything else.
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// --- no-wallclock ----------------------------------------------------

func checkWallclock(c *pkgCtx) {
	if !c.pol.InScope(RuleWallclock, c.pkg.RelName()) {
		return
	}
	for _, f := range c.pkg.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				c.emitPos(imp.Pos(), RuleWallclock,
					"simulation-core package imports "+strings.Trim(imp.Path.Value, `"`)+"; use the seeded internal/sim RNG")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFuncCall(c.pkg.Info, call)
			if pkg != "time" {
				return true
			}
			switch name {
			case "Now", "Since", "Until":
				c.emitPos(call.Pos(), RuleWallclock,
					fmt.Sprintf("time.%s in simulation-core package; a clock belongs to the command-line tools, which pass it in", name))
			}
			return true
		})
	}
}

// --- import-layering -------------------------------------------------

func checkLayering(c *pkgCtx) {
	allowed, declared := c.pol.LayerFor(c.pkg.RelName())
	for _, f := range c.pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			rel, internal := internalRel(c.prog.Mod, path)
			if !internal {
				continue
			}
			switch {
			case !declared:
				c.emitPos(imp.Pos(), RuleLayering,
					fmt.Sprintf("package %s has no layer entry in the lint policy but imports %s", c.pkg.RelName(), rel))
			case !allowed[rel]:
				c.emitPos(imp.Pos(), RuleLayering,
					fmt.Sprintf("package %s may not import %s (allowed: %s)", c.pkg.RelName(), rel, allowedList(allowed)))
			}
		}
	}
}

// internalRel maps an import path to its policy spelling ("." for the
// module root) when it is module-internal.
func internalRel(mod Module, path string) (string, bool) {
	if path == mod.Path {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, mod.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

// allowedList renders an allowed-import set for a diagnostic.
func allowedList(allowed map[string]bool) string {
	if len(allowed) == 0 {
		return "none"
	}
	list := make([]string, 0, len(allowed))
	for k := range allowed {
		list = append(list, k)
	}
	sort.Strings(list)
	return strings.Join(list, " ")
}

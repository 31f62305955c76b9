package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Rule names, as spelled in a Policy and in findings. What each has
// caught, and why it exists, is DESIGN.md §7's table.
const (
	RuleMapRange    = "nondet-map-range" // range over a map in simulation code, unless the loop only collects keys that are then sorted
	RuleWallclock   = "no-wallclock"     // time.Now/Since/Until or math/rand in simulation code
	RuleLayering    = "import-layering"  // a module-internal import outside Policy.Layers
	RuleConfigLive  = "config-liveness"  // an audited config field no model package reads
	RuleMetricsLive = "metrics-liveness" // an audited counter never written by the model, or never reported

	// The pseudo-rule reports the analyzer's own input; it cannot be
	// scoped or allowed.
	RulePolicy = "policy" // a Policy entry that names nothing in the module
)

// AllRules lists the rules in documentation order.
func AllRules() []string {
	return []string{
		RuleMapRange, RuleWallclock, RuleLayering,
		RuleConfigLive, RuleMetricsLive,
	}
}

// knownRule reports whether name is a rule a Policy.Allow key may name.
func knownRule(name string) bool { return slices.Contains(AllRules(), name) }

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
		parents := buildParents(f)
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
			if isSortedKeyCollection(c.pkg.Info, rs, parents) {
				return true
			}
			c.emitPos(rs.For, RuleMapRange,
				"range over map has nondeterministic iteration order; iterate sorted keys")
			return true
		})
	}
}

// buildParents records each node's parent, so a statement can find its
// enclosing block.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// isSortedKeyCollection recognizes the one sanctioned map-range shape:
// the loop body only appends the key to a slice, and a later statement
// of the same enclosing block sorts that slice (sort.Strings, sort.Ints,
// sort.Float64s, sort.Slice, sort.SliceStable, slices.Sort, or
// slices.SortFunc). Deleting the sort call makes the range a finding
// again, so the idiom cannot silently rot.
func isSortedKeyCollection(info *types.Info, rs *ast.RangeStmt, parents map[ast.Node]ast.Node) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if arg0, ok := call.Args[0].(*ast.Ident); !ok || objOf(info, arg0) == nil || objOf(info, arg0) != objOf(info, dst) {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	if arg1, ok := call.Args[1].(*ast.Ident); !ok || objOf(info, arg1) == nil || objOf(info, arg1) != objOf(info, key) {
		return false
	}

	block, ok := parents[rs].(*ast.BlockStmt)
	if !ok {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			after = true
			continue
		}
		if after && sortsSlice(info, stmt, objOf(info, dst)) {
			return true
		}
	}
	return false
}

// sortsSlice reports whether stmt is a sort/slices call whose first
// argument is the variable obj.
func sortsSlice(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	expr, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	pkg, name := pkgFuncCall(info, call)
	switch pkg {
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable":
		default:
			return false
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && obj != nil && objOf(info, arg) == obj
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
		relFile := c.prog.RelFile(f.Pos())
		if c.pol.Allowed(RuleWallclock, relFile, c.pkg.RelName()) {
			continue
		}
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
					fmt.Sprintf("time.%s in simulation-core package; wall-clock reads belong to the allowlisted progress layer", name))
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

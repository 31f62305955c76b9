package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide use graph behind the liveness rules:
// one node per declared function or method (plus one synthetic node per
// package for package-level variable initializers), edges for every
// function reference, and per-node read/write sets over struct fields
// and consts. Per-package syntactic rules cannot see whether a
// declaration is ever used across the module; the graph can, which is
// what config-liveness and metrics-liveness need.

// accessKind classifies how an identifier touches its object.
type accessKind int

const (
	accessRead accessKind = iota
	accessWrite
	accessReadWrite
)

// effect is one side effect observed in a function body: a write to a
// struct field or package-level variable, a store through a pointer,
// slice or map, a channel operation, or a goroutine start. The purity
// analysis (purity.go) treats any effect in the transitive call closure
// of a wake hint as a finding.
type effect struct {
	pos  token.Pos
	desc string
}

// funcNode is one node of the use graph.
type funcNode struct {
	pkg  *Package
	file string      // module-relative declaring file
	fn   *types.Func // nil for package-init pseudo-nodes

	calls map[*types.Func]bool // referenced functions and methods
	// calleeList holds the same set in first-reference source order, so
	// interprocedural traversals that report call paths stay
	// deterministic without sorting at query time.
	calleeList []*types.Func
	callPos    map[*types.Func]token.Pos // first reference site per callee
	reads      map[types.Object][]token.Pos
	writes     map[types.Object][]token.Pos
	effects    []effect // side effects, in source order
}

func newFuncNode(pkg *Package, file string) *funcNode {
	return &funcNode{
		pkg:     pkg,
		file:    file,
		calls:   make(map[*types.Func]bool),
		callPos: make(map[*types.Func]token.Pos),
		reads:   make(map[types.Object][]token.Pos),
		writes:  make(map[types.Object][]token.Pos),
	}
}

// useGraph is the module-wide defs/uses graph.
type useGraph struct {
	prog  *Program
	byObj map[*types.Func]*funcNode
	nodes []*funcNode // every node, including package-init pseudo-nodes
	// methodsByName indexes every declared method by name, the basis of
	// the interface-dispatch over-approximation in calleeNodes.
	methodsByName map[string][]*types.Func
}

// buildUseGraph scans every loaded package once.
func buildUseGraph(prog *Program) *useGraph {
	g := &useGraph{
		prog:          prog,
		byObj:         make(map[*types.Func]*funcNode),
		methodsByName: make(map[string][]*types.Func),
	}
	for _, pkg := range prog.Pkgs {
		var initNode *funcNode // lazy: many packages have no var initializers
		for _, f := range pkg.Files {
			file := prog.RelFile(f.Pos())
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					n := newFuncNode(pkg, file)
					n.fn = fn
					g.byObj[fn] = n
					g.nodes = append(g.nodes, n)
					if d.Recv != nil {
						g.methodsByName[fn.Name()] = append(g.methodsByName[fn.Name()], fn)
					}
					if d.Body != nil {
						scanBody(pkg.Info, n, d.Body)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							if initNode == nil {
								initNode = newFuncNode(pkg, file)
								g.nodes = append(g.nodes, initNode)
							}
							scanBody(pkg.Info, initNode, v)
						}
					}
				}
			}
		}
	}
	return g
}

// scanBody records the calls, field/const reads, field writes and side
// effects of one function body (or package-level initializer
// expression) into n.
func scanBody(info *types.Info, n *funcNode, root ast.Node) {
	// Pass 1: mark the identifiers that sit in write position, so the
	// generic pass below can classify everything else as a read. The
	// same pass records side effects for the purity analysis: channel
	// operations, goroutine starts, and any assignment whose target is
	// state that outlives the call.
	kinds := make(map[*ast.Ident]accessKind)
	mark := func(e ast.Expr, k accessKind) {
		if id := lvalueIdent(e); id != nil {
			kinds[id] = k
		}
	}
	markWrite := func(e ast.Expr) {
		mark(e, accessWrite)
		if desc, ok := writeEffect(info, e); ok {
			n.effects = append(n.effects, effect{pos: e.Pos(), desc: desc})
		}
	}
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			// Plain and compound assignment both count as writes only:
			// a counter that is merely `+=`-bumped has not been read by
			// the reporting path.
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				// Taking the address may lead to either access.
				mark(x.X, accessReadWrite)
			} else if x.Op == token.ARROW {
				n.effects = append(n.effects, effect{pos: x.Pos(), desc: "receives from a channel"})
			}
		case *ast.SendStmt:
			n.effects = append(n.effects, effect{pos: x.Arrow, desc: "sends on a channel"})
		case *ast.SelectStmt:
			n.effects = append(n.effects, effect{pos: x.Select, desc: "selects on channels"})
		case *ast.GoStmt:
			n.effects = append(n.effects, effect{pos: x.Go, desc: "starts a goroutine"})
		case *ast.CallExpr:
			if fun, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := objOf(info, fun).(*types.Builtin); ok && b.Name() == "close" {
					n.effects = append(n.effects, effect{pos: x.Pos(), desc: "closes a channel"})
				}
			}
		case *ast.CompositeLit:
			// Struct-literal keys initialize (write) their fields.
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						kinds[id] = accessWrite
					}
				}
			}
		}
		return true
	})

	// Pass 2: resolve every identifier.
	ast.Inspect(root, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := objOf(info, id).(type) {
		case *types.Func:
			// Instantiated generics resolve to synthetic objects; fold
			// them onto the declared origin so graph lookups match.
			obj = obj.Origin()
			if !n.calls[obj] {
				n.calls[obj] = true
				n.calleeList = append(n.calleeList, obj)
				n.callPos[obj] = id.Pos()
			}
		case *types.Var:
			obj = obj.Origin()
			if !obj.IsField() && !isPkgLevel(obj) {
				return true
			}
			switch kinds[id] {
			case accessWrite:
				n.writes[obj] = append(n.writes[obj], id.Pos())
			case accessReadWrite:
				n.writes[obj] = append(n.writes[obj], id.Pos())
				n.reads[obj] = append(n.reads[obj], id.Pos())
			default:
				n.reads[obj] = append(n.reads[obj], id.Pos())
			}
		case *types.Const:
			n.reads[obj] = append(n.reads[obj], id.Pos())
		}
		return true
	})
}

// lvalueIdent finds the identifier an assignment target binds: the
// selector's field for `x.F = v` (and `x.F[i] = v`, `*x.F = v`), the
// identifier itself for `x = v`. Blank and unresolvable targets yield
// nil.
func lvalueIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// writeEffect classifies an assignment target as a side effect: a
// write to a struct field or package-level variable, or a store
// through a pointer, slice or map reached from a local — all state
// that outlives the call. Plain writes to local variables (including
// elements of local value arrays) are pure and yield no effect.
func writeEffect(info *types.Info, e ast.Expr) (desc string, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			return "writes through a pointer", true
		case *ast.IndexExpr:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Map:
				return "writes a map element", true
			case *types.Slice, *types.Pointer:
				return "writes a slice element", true
			}
			e = x.X // value array: keep unwrapping toward the base
		case *ast.SelectorExpr:
			switch obj := objOf(info, x.Sel).(type) {
			case *types.Var:
				if obj.IsField() {
					return "writes field " + obj.Name(), true
				}
				if isPkgLevel(obj) {
					return "writes package variable " + obj.Name(), true
				}
			}
			return "", false
		case *ast.Ident:
			if obj, k := objOf(info, x).(*types.Var); k && isPkgLevel(obj) {
				return "writes package variable " + obj.Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// spec renders the node's function as a policy-style spec
// ("internal/sim.Link.NextReady", "internal/core.New"); package-init
// pseudo-nodes render as "<pkg>.<init>".
func (n *funcNode) spec() string {
	if n.fn == nil {
		return n.pkg.RelName() + ".<init>"
	}
	return n.pkg.RelName() + "." + funcDisplay(n.fn)
}

// funcDisplay renders "Type.Method" for methods and "Func" otherwise.
func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// isAbstract reports whether fn is an interface method — a callee with
// no body of its own in the graph.
func isAbstract(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// calleeNodes resolves a call edge to the graph nodes it may reach:
// the callee's own node for a static call, or — for an interface
// method, which has no body — every declared method with the same
// name anywhere in the module (the dispatch over-approximation;
// DESIGN.md §7). The over-approximation is safe in both directions
// the rules care about: liveness cannot miss a real read through an
// interface, and purity cannot miss a real effect behind one.
func (g *useGraph) calleeNodes(fn *types.Func) []*funcNode {
	if n := g.byObj[fn]; n != nil {
		return []*funcNode{n}
	}
	if !isAbstract(fn) {
		return nil // declared outside the module
	}
	var out []*funcNode
	for _, m := range g.methodsByName[fn.Name()] {
		if n := g.byObj[m]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// matchesRole reports whether the node's declaring package or file
// matches one of the policy patterns (package rel-names like
// "internal/core", file paths like "internal/metrics/chart.go"; both
// may glob).
func (n *funcNode) matchesRole(patterns []string) bool {
	for _, pat := range patterns {
		if matchPkg(pat, n.pkg.RelName()) || matchPkg(pat, n.file) {
			return true
		}
	}
	return false
}

// reachableFrom returns the set of nodes reachable along call edges
// from any node whose package or declaring file matches the patterns.
// The matching roots themselves are included.
func (g *useGraph) reachableFrom(patterns []string) map[*funcNode]bool {
	reach := make(map[*funcNode]bool)
	var queue []*funcNode
	for _, n := range g.nodes {
		if n.matchesRole(patterns) {
			reach[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for callee := range n.calls {
			for _, m := range g.calleeNodes(callee) {
				if reach[m] {
					continue
				}
				reach[m] = true
				queue = append(queue, m)
			}
		}
	}
	return reach
}

// hasRead reports whether obj is read inside any node of the set.
func (g *useGraph) hasRead(obj types.Object, within map[*funcNode]bool) bool {
	for n := range within {
		if len(n.reads[obj]) > 0 {
			return true
		}
	}
	return false
}

// hasWrite reports whether obj is written inside any node of the set.
func (g *useGraph) hasWrite(obj types.Object, within map[*funcNode]bool) bool {
	for n := range within {
		if len(n.writes[obj]) > 0 {
			return true
		}
	}
	return false
}

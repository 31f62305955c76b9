package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide use graph behind the liveness rules:
// one node per declared function or method (plus one synthetic node per
// package for package-level variable initializers), edges for every
// function reference, and per-node read/write sets over struct fields.
// Per-package syntactic rules cannot see whether a declaration is ever
// used across the module; the graph can, which is what config-liveness
// and metrics-liveness need.

// accessKind classifies how an identifier touches its object.
type accessKind int

const (
	accessRead accessKind = iota
	accessWrite
	accessReadWrite
)

// funcNode is one node of the use graph.
type funcNode struct {
	pkg  *Package
	file string      // module-relative declaring file
	fn   *types.Func // nil for package-init pseudo-nodes

	calls  map[*types.Func]bool // referenced functions and methods
	reads  map[*types.Var]bool  // struct fields read
	writes map[*types.Var]bool  // struct fields written
}

func newFuncNode(pkg *Package, file string) *funcNode {
	return &funcNode{
		pkg:    pkg,
		file:   file,
		calls:  make(map[*types.Func]bool),
		reads:  make(map[*types.Var]bool),
		writes: make(map[*types.Var]bool),
	}
}

// useGraph is the module-wide defs/uses graph.
type useGraph struct {
	byObj map[*types.Func]*funcNode
	nodes []*funcNode // every node, including package-init pseudo-nodes
	// methodsByName indexes every declared method by name, the basis of
	// the interface-dispatch over-approximation in calleeNodes.
	methodsByName map[string][]*types.Func
}

// buildUseGraph scans every loaded package once.
func buildUseGraph(prog *Program) *useGraph {
	g := &useGraph{
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

// scanBody records the calls, field reads and field writes of one
// function body (or package-level initializer expression) into n.
func scanBody(info *types.Info, n *funcNode, root ast.Node) {
	// Pass 1: mark the identifiers that sit in write position, so the
	// generic pass below can classify everything else as a read.
	kinds := make(map[*ast.Ident]accessKind)
	mark := func(e ast.Expr, k accessKind) {
		if id := lvalueIdent(e); id != nil {
			kinds[id] = k
		}
	}
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			// Plain and compound assignment both count as writes only:
			// a counter that is merely `+=`-bumped has not been read by
			// the reporting path.
			for _, lhs := range x.Lhs {
				mark(lhs, accessWrite)
			}
		case *ast.IncDecStmt:
			mark(x.X, accessWrite)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				// Taking the address may lead to either access.
				mark(x.X, accessReadWrite)
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
			n.calls[obj.Origin()] = true
		case *types.Var:
			obj = obj.Origin()
			if !obj.IsField() {
				return true
			}
			k := kinds[id]
			if k != accessRead {
				n.writes[obj] = true
			}
			if k != accessWrite {
				n.reads[obj] = true
			}
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
// DESIGN.md §7). The over-approximation is safe in the direction the
// liveness rules care about: a real read or write behind an interface
// cannot be missed.
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
func (g *useGraph) hasRead(obj *types.Var, within map[*funcNode]bool) bool {
	for n := range within {
		if n.reads[obj] {
			return true
		}
	}
	return false
}

// hasWrite reports whether obj is written inside any node of the set.
func (g *useGraph) hasWrite(obj *types.Var, within map[*funcNode]bool) bool {
	for n := range within {
		if n.writes[obj] {
			return true
		}
	}
	return false
}

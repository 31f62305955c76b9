package lint

import (
	"go/types"
	"strings"
	"testing"
)

// These tests lock the use graph's indirect call edges on the fixture's
// dispatch package (DESIGN.md §7): interface calls recorded as abstract
// callees and over-approximated to every same-name declared method,
// method values, deferred and go calls, and generic instantiations
// normalized to their declared origin. The liveness rules walk these
// edges, so a dropped edge is a knob or counter wrongly reported dead.

// dispatchGraph builds the fixture use graph and returns a lookup by
// node spec ("pkg.Func" / "pkg.Type.Method").
func dispatchGraph(t *testing.T) (*useGraph, func(spec string) *funcNode) {
	t.Helper()
	prog := loadFixture(t)
	g := buildUseGraph(prog)
	return g, func(spec string) *funcNode {
		t.Helper()
		for _, n := range g.nodes {
			if n.fn != nil && nodeSpec(n) == spec {
				return n
			}
		}
		t.Fatalf("use graph has no node %s", spec)
		return nil
	}
}

// nodeSpec renders a node's function as "pkg.Func" or
// "pkg.Type.Method", with the package module-relative.
func nodeSpec(n *funcNode) string {
	name := n.fn.Name()
	if recv := n.fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	return n.pkg.RelName() + "." + name
}

// calleeSpecs renders a node's callees (through the dispatch
// over-approximation) as specs, in no particular order.
func calleeSpecs(g *useGraph, n *funcNode) []string {
	var out []string
	for callee := range n.calls {
		for _, target := range g.calleeNodes(callee) {
			out = append(out, nodeSpec(target))
		}
	}
	return out
}

func TestUseGraphInterfaceDispatch(t *testing.T) {
	g, find := dispatchGraph(t)
	n := find("dispatch.CallIface")

	var abstract bool
	for callee := range n.calls {
		if isAbstract(callee) && callee.Name() == "Do" {
			abstract = true
		}
	}
	if !abstract {
		t.Fatal("CallIface records no abstract Doer.Do callee")
	}
	// The over-approximation must expand the abstract method to every
	// declared method of the same name, module-wide.
	targets := strings.Join(calleeSpecs(g, n), " ")
	for _, want := range []string{"dispatch.A.Do", "dispatch.B.Do"} {
		if !strings.Contains(targets, want) {
			t.Errorf("interface dispatch misses %s (got: %s)", want, targets)
		}
	}
}

func TestUseGraphMethodValueEdge(t *testing.T) {
	g, find := dispatchGraph(t)
	// a.Do as a method value is a reference, not a call — the graph
	// must record the edge anyway: the value can be invoked later.
	targets := strings.Join(calleeSpecs(g, find("dispatch.MethodValue")), " ")
	if !strings.Contains(targets, "dispatch.A.Do") {
		t.Errorf("method value edge to A.Do missing (got: %s)", targets)
	}
}

func TestUseGraphDeferAndGoEdges(t *testing.T) {
	g, find := dispatchGraph(t)
	n := find("dispatch.DeferredAndGo")
	targets := strings.Join(calleeSpecs(g, n), " ")
	for _, want := range []string{"dispatch.A.Do", "dispatch.B.Do"} {
		if !strings.Contains(targets, want) {
			t.Errorf("defer/go edge to %s missing (got: %s)", want, targets)
		}
	}
}

func TestUseGraphGenericOriginNormalized(t *testing.T) {
	g, find := dispatchGraph(t)
	// UseBox calls Get on Box[int]; the recorded callee must be the
	// declared origin Box[T].Get — i.e. resolvable to a graph node, not
	// a dangling synthetic instantiation object.
	targets := strings.Join(calleeSpecs(g, find("dispatch.UseBox")), " ")
	if !strings.Contains(targets, "dispatch.Box.Get") {
		t.Errorf("generic call not normalized to declared origin (got: %s)", targets)
	}
}

package lint

import (
	"fmt"
	"go/types"
	"slices"
	"strings"
)

// Module-wide liveness rules. Both run over the use graph built in
// usegraph.go rather than per package:
//
//   - config-liveness: every exported field of Policy.Config.Structs
//     must be read by code in — or transitively called from — its
//     Readers. A knob that is only written by defaults (or read by
//     nothing but tests, which the loader never reads, or by nothing
//     but an audited struct's own Validate) is a finding.
//
//   - metrics-liveness: every exported counter field of
//     Policy.Metrics.Structs must be written from its Writers (a
//     never-incremented counter is "dead") and read from its Readers,
//     the reporting path (a never-reported counter is "unreported").
//     The two failures are distinct findings.
//
// "Transitively called from" means the reachability closure over the
// use graph's call edges: a read inside config's own NoCPortBytes
// helper counts because internal/noc calls the helper, while a read
// that only tests can reach does not.

// progCtx bundles what a module-wide rule needs: the loaded program,
// the lazily built use graph, the suppression-aware emitter and where a
// policy entry that names nothing is reported.
type progCtx struct {
	prog    *Program
	emitPos emitFunc
	stale   func(msg string)

	graph *useGraph
}

func (c *progCtx) useGraph() *useGraph {
	if c.graph == nil {
		c.graph = buildUseGraph(c.prog)
	}
	return c.graph
}

// resolveStruct maps an Audit.Structs entry "internal/config.Config"
// (or ".Result" for the module root) to its *types.Struct, or reports
// the entry as stale and returns nil.
func (c *progCtx) resolveStruct(rule, spec string) *types.Struct {
	dot := strings.LastIndex(spec, ".")
	pkgRel, typeName := ".", spec[dot+1:]
	if dot > 0 {
		pkgRel = spec[:dot]
	}
	for _, pkg := range c.prog.Pkgs {
		if pkg.RelName() != pkgRel {
			continue
		}
		if obj := pkg.Types.Scope().Lookup(typeName); obj != nil {
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				return st
			}
		}
	}
	c.stale(fmt.Sprintf("%s struct %s is not a struct type of the module (want pkg.Type)", rule, spec))
	return nil
}

// auditedStruct is one resolved Audit.Structs entry.
type auditedStruct struct {
	spec string
	st   *types.Struct
}

// auditedStructs resolves the audit's struct specs in order, dropping
// the stale ones.
func (c *progCtx) auditedStructs(rule string, specs []string) []auditedStruct {
	var out []auditedStruct
	for _, spec := range specs {
		if st := c.resolveStruct(rule, spec); st != nil {
			out = append(out, auditedStruct{spec, st})
		}
	}
	return out
}

// visitFields visits the exported fields of the structs, each with the
// spec it came from.
func visitFields(structs []auditedStruct, visit func(spec string, f *types.Var)) {
	for _, a := range structs {
		for i := 0; i < a.st.NumFields(); i++ {
			if f := a.st.Field(i); f.Exported() {
				visit(a.spec, f)
			}
		}
	}
}

// validates reports whether n is the Validate method of one of the
// structs.
func (n *funcNode) validates(structs []auditedStruct) bool {
	if n.fn == nil || n.fn.Name() != "Validate" {
		return false
	}
	recv := n.fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return slices.ContainsFunc(structs, func(a auditedStruct) bool { return a.st == t.Underlying() })
}

// --- config-liveness --------------------------------------------------

func checkConfigLiveness(c *progCtx, a Audit) {
	if len(a.Structs) == 0 {
		return
	}
	g := c.useGraph()
	structs := c.auditedStructs(RuleConfigLive, a.Structs)
	reach := g.reachableFrom(a.Readers)
	// An audited struct's Validate reads each knob it bounds, and the
	// model calls it, but a knob read there and nowhere else changes no
	// simulated cycle: that read is no use. What Validate calls stays
	// reachable.
	for n := range reach {
		if n.validates(structs) {
			delete(reach, n)
		}
	}
	visitFields(structs, func(spec string, f *types.Var) {
		if !g.hasRead(f, reach) {
			c.emitPos(f.Pos(), RuleConfigLive,
				fmt.Sprintf("config knob %s.%s is never read by a simulator package (readers: %s); wire it into the model or delete it",
					spec, f.Name(), strings.Join(a.Readers, " ")))
		}
	})
}

// --- metrics-liveness -------------------------------------------------

func checkMetricsLiveness(c *progCtx, a Audit) {
	if len(a.Structs) == 0 {
		return
	}
	g := c.useGraph()
	writeReach := g.reachableFrom(a.Writers)
	readReach := g.reachableFrom(a.Readers)
	visitFields(c.auditedStructs(RuleMetricsLive, a.Structs), func(spec string, f *types.Var) {
		switch {
		case !g.hasWrite(f, writeReach):
			c.emitPos(f.Pos(), RuleMetricsLive,
				fmt.Sprintf("counter %s.%s is never written by a simulator package (dead counter); increment it or remove it",
					spec, f.Name()))
		case !g.hasRead(f, readReach):
			c.emitPos(f.Pos(), RuleMetricsLive,
				fmt.Sprintf("counter %s.%s is written but never read by the reporting path (unreported counter); report it or remove it",
					spec, f.Name()))
		}
	})
}

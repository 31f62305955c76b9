package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// Module-wide liveness rules. Both run over the use graph built in
// usegraph.go rather than per package:
//
//   - config-liveness: every exported field of Policy.Config.Structs
//     must be read by code in — or transitively called from — its
//     Readers. A knob that is only written by defaults (or read by
//     nothing but tests, which nubalint never loads) is a finding.
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

// auditedFields visits the exported fields of the audit's structs, each
// with the spec it came from.
func (c *progCtx) auditedFields(rule string, specs []string, visit func(spec string, f *types.Var)) {
	for _, spec := range specs {
		st := c.resolveStruct(rule, spec)
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				visit(spec, f)
			}
		}
	}
}

// --- config-liveness --------------------------------------------------

func checkConfigLiveness(c *progCtx, a Audit) {
	if len(a.Structs) == 0 {
		return
	}
	g := c.useGraph()
	reach := g.reachableFrom(a.Readers)
	c.auditedFields(RuleConfigLive, a.Structs, func(spec string, f *types.Var) {
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
	c.auditedFields(RuleMetricsLive, a.Structs, func(spec string, f *types.Var) {
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

package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// Module-wide liveness rules. Both run over the use graph built in
// usegraph.go rather than per package:
//
//   - config-liveness: every exported field of the parameter structs
//     listed in `structs config-liveness` must be read by code in — or
//     transitively called from — the `readers config-liveness`
//     packages. A knob that is only written by defaults (or read by
//     nothing but tests, which nubalint never loads) is a finding.
//
//   - metrics-liveness: every exported counter field of the structs
//     listed in `structs metrics-liveness` must be written from the
//     `writers metrics-liveness` packages (a never-incremented counter
//     is "dead") and read from the `readers metrics-liveness` reporting
//     path (a never-reported counter is "unreported"). The two
//     failures are distinct findings.
//
// "Transitively called from" means the reachability closure over the
// use graph's call edges: a read inside config's own NoCPortBytes
// helper counts because internal/noc calls the helper, while a read
// that only tests can reach does not.

// progCtx bundles what a module-wide rule needs: the loaded program,
// policy, lazily built use graph, and the suppression-aware emitter.
type progCtx struct {
	prog    *Program
	pol     *Policy
	emitPos emitFunc

	graph *useGraph
}

func (c *progCtx) useGraph() *useGraph {
	if c.graph == nil {
		c.graph = buildUseGraph(c.prog)
	}
	return c.graph
}

// resolveStruct maps a policy struct spec "internal/config.Config" (or
// ".Result" for the module root) to its *types.Struct. The spec's
// package must be among the loaded packages.
func (c *progCtx) resolveStruct(spec string) (*types.Struct, error) {
	dot := strings.LastIndex(spec, ".")
	if dot < 0 {
		return nil, fmt.Errorf("struct spec %q is not of the form pkg.Type", spec)
	}
	pkgRel, typeName := spec[:dot], spec[dot+1:]
	if pkgRel == "" {
		pkgRel = "."
	}
	for _, pkg := range c.prog.Pkgs {
		if pkg.RelName() != pkgRel {
			continue
		}
		obj := pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			return nil, fmt.Errorf("struct spec %q: no type %s in package %s", spec, typeName, pkgRel)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("struct spec %q: %s is not a struct type", spec, typeName)
		}
		return st, nil
	}
	return nil, fmt.Errorf("struct spec %q: package %s is not among the loaded packages", spec, pkgRel)
}

// --- config-liveness --------------------------------------------------

func checkConfigLiveness(c *progCtx) error {
	specs := c.pol.Structs(RuleConfigLive)
	if len(specs) == 0 {
		return nil
	}
	readers := c.pol.Readers(RuleConfigLive)
	g := c.useGraph()
	reach := g.reachableFrom(readers)
	for _, spec := range specs {
		st, err := c.resolveStruct(spec)
		if err != nil {
			return fmt.Errorf("config-liveness: %w", err)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			if !g.hasRead(f, reach) {
				c.emitPos(f.Pos(), RuleConfigLive,
					fmt.Sprintf("config knob %s.%s is never read by a simulator package (readers: %s); wire it into the model or delete it",
						spec, f.Name(), strings.Join(readers, " ")))
			}
		}
	}
	return nil
}

// --- metrics-liveness -------------------------------------------------

func checkMetricsLiveness(c *progCtx) error {
	specs := c.pol.Structs(RuleMetricsLive)
	if len(specs) == 0 {
		return nil
	}
	g := c.useGraph()
	writeReach := g.reachableFrom(c.pol.Writers(RuleMetricsLive))
	readReach := g.reachableFrom(c.pol.Readers(RuleMetricsLive))
	for _, spec := range specs {
		st, err := c.resolveStruct(spec)
		if err != nil {
			return fmt.Errorf("metrics-liveness: %w", err)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
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
		}
	}
	return nil
}

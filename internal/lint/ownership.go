package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// partition-isolation (DESIGN.md §7): writes to fields of the
// partition-owned component structs listed in `structs
// partition-isolation` may only originate from the struct's own package
// or from the seam functions/files declared in `writers
// partition-isolation` (the core's construction-time port installs).
// Anything else is one component reaching into another's state behind
// the ports.
//
// OwnershipReport (nubalint -ownership) prints the audited field →
// writers map for manual auditing of the same data.

// resolveNamed maps a policy struct spec "internal/smcore.SM" to its
// *types.Named and the module-relative package that declares it.
func (c *progCtx) resolveNamed(spec string) (*types.Named, string, error) {
	dot := strings.LastIndex(spec, ".")
	if dot < 0 {
		return nil, "", fmt.Errorf("struct spec %q is not of the form pkg.Type", spec)
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
			return nil, "", fmt.Errorf("struct spec %q: no type %s in package %s", spec, typeName, pkgRel)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil, "", fmt.Errorf("struct spec %q: %s is not a named type", spec, typeName)
		}
		return named, pkgRel, nil
	}
	return nil, "", fmt.Errorf("struct spec %q: package %s is not among the loaded packages", spec, pkgRel)
}

// --- partition-isolation -----------------------------------------------

// isFuncSpecPattern distinguishes a writers entry naming a single
// function ("internal/core.GPU.buildNUBA") from one naming a package or
// file ("internal/noc", "internal/core/route.go").
func isFuncSpecPattern(pat string) bool {
	if strings.HasSuffix(pat, ".go") || strings.ContainsAny(pat, "*?[") {
		return false
	}
	tail := pat
	if i := strings.LastIndexByte(pat, '/'); i >= 0 {
		tail = pat[i+1:]
	}
	return strings.Contains(tail, ".")
}

// writerAllowed reports whether node n may write partition state under
// the writers patterns: role patterns match its package or file, func
// specs match the node's own function.
func writerAllowed(n *funcNode, rolePats, funcSpecs []string) bool {
	if n.matchesRole(rolePats) {
		return true
	}
	spec := n.spec()
	for _, fs := range funcSpecs {
		if fs == spec {
			return true
		}
	}
	return false
}

func checkPartitionIsolation(c *progCtx) error {
	specs := c.pol.Structs(RulePartitionIsolation)
	if len(specs) == 0 {
		return nil
	}
	var rolePats, funcSpecs []string
	for _, pat := range c.pol.Writers(RulePartitionIsolation) {
		if isFuncSpecPattern(pat) {
			funcSpecs = append(funcSpecs, pat)
		} else {
			rolePats = append(rolePats, pat)
		}
	}
	g := c.useGraph()
	for _, spec := range specs {
		named, ownerRel, err := c.resolveNamed(spec)
		if err != nil {
			return fmt.Errorf("partition-isolation: %w", err)
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return fmt.Errorf("partition-isolation: struct spec %q: %s is not a struct type", spec, named.Obj().Name())
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			for _, n := range g.nodes {
				if n.pkg.RelName() == ownerRel {
					continue // the owning subsystem may mutate its own state
				}
				posns := n.writes[f]
				if len(posns) == 0 || writerAllowed(n, rolePats, funcSpecs) {
					continue
				}
				for _, pos := range posns {
					c.emitPos(pos, RulePartitionIsolation,
						fmt.Sprintf("%s writes partition-owned %s.%s; only %s or a seam in `writers partition-isolation` may mutate it",
							n.spec(), spec, f.Name(), ownerRel))
				}
			}
		}
	}
	return nil
}

// --- ownership report --------------------------------------------------

// OwnershipReport renders the field → writers map of every struct
// audited by partition-isolation, for `nubalint -ownership`. Output is
// deterministic: structs in policy order, fields in declaration order,
// writers sorted by position.
func OwnershipReport(prog *Program, pol *Policy) (string, error) {
	c := &progCtx{prog: prog, pol: pol}
	specs := pol.Structs(RulePartitionIsolation)
	if len(specs) == 0 {
		return "", fmt.Errorf("ownership: no `structs partition-isolation` entries in the policy")
	}
	g := c.useGraph()
	var b strings.Builder
	for _, spec := range specs {
		named, ownerRel, err := c.resolveNamed(spec)
		if err != nil {
			return "", fmt.Errorf("ownership: %w", err)
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return "", fmt.Errorf("ownership: struct spec %q is not a struct type", spec)
		}
		fmt.Fprintf(&b, "%s (owner: %s)\n", spec, ownerRel)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			type site struct {
				pos  token.Pos
				spec string
			}
			var sites []site
			for _, n := range g.nodes {
				for _, pos := range n.writes[f] {
					sites = append(sites, site{pos: pos, spec: n.spec()})
				}
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
			if len(sites) == 0 {
				fmt.Fprintf(&b, "  %-24s (no writers)\n", f.Name())
				continue
			}
			for _, s := range sites {
				posn := prog.Fset.Position(s.pos)
				fmt.Fprintf(&b, "  %-24s <- %s (%s:%d)\n", f.Name(), s.spec, prog.RelFile(s.pos), posn.Line)
			}
		}
	}
	return b.String(), nil
}

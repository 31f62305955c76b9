package lint

import (
	"fmt"
	"os"
	"path"
	"strings"
)

// Policy is the parsed lint.policy file: the package layering DAG, the
// package scope of each rule, and per-rule allowlists.
//
// The file is line-based; '#' starts a comment. Three directives exist,
// all of the form "<verb> <subject> = <values...>":
//
//	layer <pkg> = <allowed internal imports...>
//	    Declares the module-internal packages <pkg> may import. Packages
//	    are module-relative directories ("internal/core"); "." names the
//	    module root package. <pkg> may use a '*' glob ("cmd/*"). A
//	    package that imports a module-internal package without a
//	    matching layer entry, or one not in its allowed set, is an
//	    import-layering violation.
//
//	scope <rule> = <pkgs...>
//	    Restricts <rule> to the listed packages ('*' = every package).
//	    A rule with no scope line applies everywhere.
//
//	allow <rule> = <files-or-pkgs...>
//	    Exempts whole files (module-relative paths, '*' globs allowed)
//	    or packages from <rule>. This is the coarse escape hatch for
//	    designated layers (e.g. the engine's progress/clock helper for
//	    no-wallclock); single sites use //nubalint:ignore instead.
//
// The module-wide liveness rules add three more directives of the same
// shape (see liveness.go):
//
//	structs <rule> = <pkg.Type...>
//	    Names the parameter/counter structs the rule audits, as
//	    module-relative package dot type ("internal/config.Config").
//
//	readers <rule> = <pkgs-or-files...>
//	writers <rule> = <pkgs-or-files...>
//	    Name the packages (or single files, e.g.
//	    "internal/metrics/chart.go") whose code — including everything
//	    transitively called from it — counts as a legitimate read
//	    (resp. write) of the audited fields.
type Policy struct {
	layers  map[string][]string // pkg pattern -> allowed internal imports
	scopes  map[string][]string // rule -> pkg patterns
	allows  map[string][]string // rule -> file/pkg patterns
	structs map[string][]string // rule -> pkg.Type specs
	readers map[string][]string // rule -> pkg/file patterns
	writers map[string][]string // rule -> pkg/file patterns
}

// ParsePolicy reads and parses a policy file.
func ParsePolicy(file string) (*Policy, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return ParsePolicyData(string(data), file)
}

// ParsePolicyData parses policy text; name is used in error messages.
func ParsePolicyData(src, name string) (*Policy, error) {
	p := &Policy{
		layers:  make(map[string][]string),
		scopes:  make(map[string][]string),
		allows:  make(map[string][]string),
		structs: make(map[string][]string),
		readers: make(map[string][]string),
		writers: make(map[string][]string),
	}
	for i, line := range strings.Split(src, "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		subject, values, ok := strings.Cut(rest, "=")
		if !ok {
			return nil, fmt.Errorf("%s:%d: missing '=' in %q", name, i+1, line)
		}
		subject = strings.TrimSpace(subject)
		if subject == "" {
			return nil, fmt.Errorf("%s:%d: missing subject in %q", name, i+1, line)
		}
		vals := strings.Fields(values)
		switch verb {
		case "layer":
			if _, dup := p.layers[subject]; dup {
				return nil, fmt.Errorf("%s:%d: duplicate layer entry for %q", name, i+1, subject)
			}
			p.layers[subject] = vals
		case "scope":
			if !knownRule(subject) {
				return nil, fmt.Errorf("%s:%d: scope for unknown rule %q", name, i+1, subject)
			}
			p.scopes[subject] = append(p.scopes[subject], vals...)
		case "allow":
			if !knownRule(subject) {
				return nil, fmt.Errorf("%s:%d: allow for unknown rule %q", name, i+1, subject)
			}
			p.allows[subject] = append(p.allows[subject], vals...)
		case "structs", "readers", "writers":
			if !knownRule(subject) {
				return nil, fmt.Errorf("%s:%d: %s for unknown rule %q", name, i+1, verb, subject)
			}
			m := map[string]map[string][]string{
				"structs": p.structs, "readers": p.readers, "writers": p.writers,
			}[verb]
			m[subject] = append(m[subject], vals...)
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q (want layer/scope/allow/structs/readers/writers)", name, i+1, verb)
		}
	}
	return p, nil
}

// matchPkg reports whether the policy pattern matches the package
// spelled relName ("." for the module root).
func matchPkg(pattern, relName string) bool {
	if pattern == "*" {
		return true
	}
	if strings.ContainsAny(pattern, "*?[") {
		ok, err := path.Match(pattern, relName)
		return err == nil && ok
	}
	return pattern == relName
}

// InScope reports whether rule applies to the package relName.
func (p *Policy) InScope(rule, relName string) bool {
	pats, ok := p.scopes[rule]
	if !ok {
		return true // no scope line: the rule applies everywhere
	}
	for _, pat := range pats {
		if matchPkg(pat, relName) {
			return true
		}
	}
	return false
}

// LayerFor returns the set of module-relative import targets ("." for
// the root package) that relName may import, and whether any layer
// entry matched at all. When several entries match (an exact entry plus
// a glob, say), their allowed sets union.
func (p *Policy) LayerFor(relName string) (allowed map[string]bool, declared bool) {
	allowed = make(map[string]bool)
	for pat, vals := range p.layers {
		if !matchPkg(pat, relName) {
			continue
		}
		declared = true
		for _, v := range vals {
			allowed[v] = true
		}
	}
	return allowed, declared
}

// Structs returns the pkg.Type specs audited by a liveness rule.
func (p *Policy) Structs(rule string) []string { return p.structs[rule] }

// Readers returns the package/file patterns whose code (and its
// transitive callees) counts as reading the rule's audited fields.
func (p *Policy) Readers(rule string) []string { return p.readers[rule] }

// Writers returns the package/file patterns whose code (and its
// transitive callees) counts as writing the rule's audited fields.
func (p *Policy) Writers(rule string) []string { return p.writers[rule] }

// Allowed reports whether rule exempts the given module-relative file
// (or its package relName) via an allow entry.
func (p *Policy) Allowed(rule, relFile, relName string) bool {
	for _, pat := range p.allows[rule] {
		if matchPkg(pat, relFile) || matchPkg(pat, relName) {
			return true
		}
	}
	return false
}

package lint

import (
	"fmt"
	"path"
	"slices"
	"strings"
)

// Policy is what the rules are told about one module. It is a Go value,
// not a file: RepoPolicy below is this repository's, and the fixture
// module's is in lint_test.go. Packages are module-relative directories
// ("internal/core"), "." is the module root, files are module-relative
// paths; a name may carry a path.Match glob ("cmd/*"). Every name must
// match something in the loaded module or Run reports it (checkPolicy),
// so a misspelt entry cannot silently apply to nothing.
type Policy struct {
	// Layers is the package DAG import-layering holds: the
	// module-internal packages each package may import. A package with
	// no matching key may import none; when several keys match, their
	// sets union.
	Layers map[string][]string
	// Simulation reports whether a package is simulation code — the
	// scope of nondet-map-range and no-wallclock. A predicate, not a
	// list, so that a package created tomorrow is covered without an
	// edit here. Within it neither rule has an exception, by file or by
	// site: a finding is fixed in the code.
	Simulation func(pkg string) bool
	// Config and Metrics are the audits behind config-liveness and
	// metrics-liveness (liveness.go).
	Config, Metrics Audit
}

// Audit names the structs a liveness rule audits ("internal/config.Config")
// and the packages or files whose code — with everything transitively
// called from it — counts as reading, or writing, their fields.
type Audit struct {
	Structs, Readers, Writers []string
}

// modelPkgs are the packages that make up the simulated machine: the
// ones that must read every config knob and, with the two below them
// that count events, write every counter.
var modelPkgs = []string{
	"internal/core", "internal/noc", "internal/llc", "internal/mdr",
	"internal/dram", "internal/smcore", "internal/vm", "internal/driver",
}

// RepoPolicy is this repository's policy: what TestRepoLintsClean holds
// the module to (DESIGN.md §7).
var RepoPolicy = &Policy{
	// Leaves first. _test.go files are exempt by construction (the
	// loader never reads them).
	Layers: map[string][]string{
		"internal/sim":      nil,
		"internal/metrics":  nil,
		"internal/trace":    {"internal/sim"},
		"internal/config":   {"internal/sim"},
		"internal/kir":      {"internal/sim"},
		"internal/cache":    {"internal/sim"},
		"internal/noc":      {"internal/sim"},
		"internal/addrmap":  {"internal/config", "internal/sim"},
		"internal/energy":   {"internal/config", "internal/metrics"},
		"internal/workload": {"internal/kir", "internal/sim"},
		"internal/driver":   {"internal/addrmap", "internal/config", "internal/sim"},
		"internal/dram":     {"internal/addrmap", "internal/config", "internal/sim"},
		"internal/llc":      {"internal/cache", "internal/config", "internal/metrics", "internal/sim"},
		"internal/mdr":      {"internal/cache", "internal/config", "internal/metrics", "internal/sim"},
		"internal/vm":       {"internal/cache", "internal/config", "internal/driver", "internal/metrics", "internal/sim"},
		"internal/smcore": {"internal/cache", "internal/config", "internal/kir", "internal/metrics",
			"internal/sim", "internal/vm"},
		"internal/core": {"internal/addrmap", "internal/config", "internal/dram", "internal/driver",
			"internal/energy", "internal/kir", "internal/llc", "internal/mdr", "internal/metrics",
			"internal/noc", "internal/sim", "internal/smcore", "internal/trace", "internal/vm"},

		// The public API: the root package re-exports what the CLIs and
		// examples need; internal/experiments is the engine above it.
		".": {"internal/config", "internal/core", "internal/energy", "internal/kir",
			"internal/metrics", "internal/trace", "internal/workload"},
		"internal/experiments": {".", "internal/metrics", "internal/workload"},

		// Tooling is outside the simulator DAG entirely.
		"internal/lint":     nil,
		"internal/hostprof": nil,

		// CLIs and examples reach the simulator only through the public
		// API and the experiment engine, never its internals.
		"cmd/*":      {".", "internal/experiments", "internal/hostprof"},
		"examples/*": {"."},
	},

	// Everything under internal/ is simulation code except the two
	// tooling packages. The module root, cmd/ and examples/ are engine
	// and UI layers where the wall clock (the CLIs hand time.Now to the
	// progress printer) and goroutine fan-out are legitimate.
	Simulation: func(pkg string) bool {
		return strings.HasPrefix(pkg, "internal/") && pkg != "internal/lint" && pkg != "internal/hostprof"
	},

	Config: Audit{
		Structs: []string{"internal/config.Config", "internal/config.HBMTiming"},
		Readers: modelPkgs,
	},
	Metrics: Audit{
		Structs: []string{"internal/metrics.Stats"},
		Writers: slices.Concat(modelPkgs, []string{"internal/cache", "internal/energy"}),
		Readers: []string{"internal/experiments", ".", "internal/metrics/chart.go", "cmd/*"},
	},
}

// matchPkg reports whether the policy name matches the package or file
// spelled rel ("." for the module root).
func matchPkg(pattern, rel string) bool {
	if strings.ContainsAny(pattern, "*?[") {
		ok, err := path.Match(pattern, rel)
		return err == nil && ok
	}
	return pattern == rel
}

// InScope reports whether rule applies to the package relName: the two
// determinism rules to simulation code, every other rule everywhere.
func (p *Policy) InScope(rule, relName string) bool {
	if rule == RuleMapRange || rule == RuleWallclock {
		return p.Simulation(relName)
	}
	return true
}

// LayerFor returns the set of module-relative import targets ("." for
// the root package) that relName may import, and whether any Layers key
// matched at all.
func (p *Policy) LayerFor(relName string) (allowed map[string]bool, declared bool) {
	allowed = make(map[string]bool)
	for pat, vals := range p.Layers {
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

// checkPolicy reports every name in the policy that matches nothing in
// the loaded module, under the "policy" pseudo-rule, so that a typo or a
// package since deleted cannot silently narrow a rule. Audit.Structs are
// resolved, and reported, by the liveness rules themselves.
func checkPolicy(prog *Program, pol *Policy, report func(msg string)) {
	pkgs := make(map[string]bool)
	var names []string // every package and file of the module
	for _, pkg := range prog.Pkgs {
		pkgs[pkg.RelName()] = true
		names = append(names, pkg.RelName())
		for _, f := range pkg.Files {
			names = append(names, prog.RelFile(f.Pos()))
		}
	}
	// want reports each of pats that matches none of names.
	want := func(what string, pats []string) {
		for _, pat := range pats {
			if !slices.ContainsFunc(names, func(n string) bool { return matchPkg(pat, n) }) {
				report(fmt.Sprintf("%s %s matches no package or file of the module", what, pat))
			}
		}
	}
	for pat, vals := range pol.Layers {
		want("layer entry", []string{pat})
		for _, v := range vals {
			if !pkgs[v] {
				report(fmt.Sprintf("layer %s allows %s, which is not a package of the module", pat, v))
			}
		}
	}
	want(RuleConfigLive+" reader", pol.Config.Readers)
	want(RuleMetricsLive+" writer", pol.Metrics.Writers)
	want(RuleMetricsLive+" reader", pol.Metrics.Readers)
}

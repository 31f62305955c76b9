// Command nubalint enforces the simulator's determinism, layering,
// liveness and dimensional invariants with a pure-stdlib static
// analysis (see internal/lint). It exits 0 when the tree is clean, 1 on
// findings, 2 on usage or load errors — vet-style, so `make lint` and
// CI can gate on it.
//
// Usage:
//
//	nubalint [-policy lint.policy] [-rules r1,r2] [-json] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Rules: nondet-map-range, no-wallclock and import-layering run per
// package; config-liveness, metrics-liveness and hint-purity analyze
// the module-wide use graph; unit-consistency checks //nubaunit: dimensional annotations
// (default: all). Findings are suppressed in place with
// `//nubalint:ignore <rule> <reason>`; package scopes, file
// allowlists, the import DAG, the liveness structs/readers/writers
// sets and the wake-hint funcs set live in lint.policy.
//
// -json emits a deterministic, schema-stable array sorted by
// (file, line, col, rule); each finding carries a severity field
// (currently always "error": every rule gates CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/nuba-gpu/nuba/internal/lint"
)

func main() {
	policyPath := flag.String("policy", "", "policy file (default: lint.policy at the module root)")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array")
	rulesFlag := flag.String("rules", "", "comma-separated rules to run (default: all)")
	flag.Parse()

	if err := run(*policyPath, *rulesFlag, *jsonOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "nubalint:", err)
		os.Exit(2)
	}
}

func run(policyPath, rulesFlag string, jsonOut bool, patterns []string) error {
	mod, err := lint.FindModule(".")
	if err != nil {
		return err
	}
	if policyPath == "" {
		policyPath = filepath.Join(mod.Dir, "lint.policy")
	}
	pol, err := lint.ParsePolicy(policyPath)
	if err != nil {
		return err
	}

	var rules []string
	if rulesFlag != "" {
		for _, r := range strings.Split(rulesFlag, ",") {
			rules = append(rules, strings.TrimSpace(r))
		}
	}

	prog, err := lint.Load(mod, patterns)
	if err != nil {
		return err
	}
	diags, err := lint.Run(prog, pol, rules)
	if err != nil {
		return err
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "nubalint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
	return nil
}

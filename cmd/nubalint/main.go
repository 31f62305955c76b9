// Command nubalint enforces the simulator's determinism, layering and
// liveness invariants with a pure-stdlib static analysis (see
// internal/lint). It exits 0 when the tree is clean, 1 on findings, 2
// on usage or load errors — vet-style, so `make lint` and CI can gate
// on it.
//
// Usage:
//
//	nubalint [-policy lint.policy] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Rules: nondet-map-range, no-wallclock and import-layering run per
// package; config-liveness and metrics-liveness analyze the module-wide
// use graph. All five always run (`| grep <rule>` filters). Findings,
// one per line sorted by (file, line, col, rule), are suppressed in
// place with `//nubalint:ignore <rule> <reason>`; package scopes, file
// allowlists, the import DAG and the liveness structs/readers/writers
// sets live in lint.policy.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/nuba-gpu/nuba/internal/lint"
)

func main() {
	policyPath := flag.String("policy", "", "policy file (default: lint.policy at the module root)")
	flag.Parse()

	n, err := run(*policyPath, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubalint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "nubalint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// run prints the findings and returns how many there were.
func run(policyPath string, patterns []string) (int, error) {
	mod, err := lint.FindModule(".")
	if err != nil {
		return 0, err
	}
	if policyPath == "" {
		policyPath = filepath.Join(mod.Dir, "lint.policy")
	}
	pol, err := lint.ParsePolicy(policyPath)
	if err != nil {
		return 0, err
	}
	prog, err := lint.Load(mod, patterns)
	if err != nil {
		return 0, err
	}
	diags, err := lint.Run(prog, pol)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	return len(diags), nil
}

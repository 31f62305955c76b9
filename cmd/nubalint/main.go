// Command nubalint holds the module it is run in — whole — to the
// simulator's determinism, layering and liveness invariants: the five
// rules of internal/lint under that package's RepoPolicy (DESIGN.md §7).
// It takes no flags and no arguments. Findings go to stdout, one per
// line, sorted; it exits 0 when the tree is clean, 1 on findings, 2 on
// usage or load errors — vet-style, so `make lint` and CI can gate on it.
package main

import (
	"fmt"
	"os"

	"github.com/nuba-gpu/nuba/internal/lint"
)

func main() {
	n, err := run(os.Args[1:])
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
func run(args []string) (int, error) {
	if len(args) > 0 {
		return 0, fmt.Errorf("unexpected argument %q: nubalint takes none and lints the whole module it is run in", args[0])
	}
	mod, err := lint.FindModule(".")
	if err != nil {
		return 0, err
	}
	prog, err := lint.Load(mod)
	if err != nil {
		return 0, err
	}
	diags := lint.Run(prog, lint.RepoPolicy)
	for _, d := range diags {
		fmt.Println(d)
	}
	return len(diags), nil
}

package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkNubalint measures a full analyzer pass — every rule over
// the real module with the real policy — excluding the one-time
// parse/type-check (Load), which is amortized across rules in the CLI
// too. This is the `make lint` inner loop; the module-wide use graph is
// built once per Run and shared by every rule that needs it, so the
// benchmark catches a rule accidentally rebuilding it.
func BenchmarkNubalint(b *testing.B) {
	mod, err := FindModule("../..")
	if err != nil {
		b.Fatalf("FindModule: %v", err)
	}
	pol, err := ParsePolicy(filepath.Join(mod.Dir, "lint.policy"))
	if err != nil {
		b.Fatalf("ParsePolicy: %v", err)
	}
	prog, err := Load(mod, []string{"./..."})
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := Run(prog, pol)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo not lint-clean: %d findings", len(diags))
		}
	}
}

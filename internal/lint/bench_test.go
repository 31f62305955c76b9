package lint

import "testing"

// BenchmarkNubalint measures a full analyzer pass — every rule over
// the real module with the real policy — excluding the one-time
// parse/type-check (Load), which every rule shares. This is the inner
// loop of TestRepoLintsClean; the module-wide use graph is
// built once per Run and shared by every rule that needs it, so the
// benchmark catches a rule accidentally rebuilding it.
func BenchmarkNubalint(b *testing.B) {
	mod, err := FindModule("../..")
	if err != nil {
		b.Fatalf("FindModule: %v", err)
	}
	prog, err := Load(mod)
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(prog, RepoPolicy); len(diags) != 0 {
			b.Fatalf("repo not lint-clean: %d findings", len(diags))
		}
	}
}

package lint

import (
	"os"
	"testing"
)

// TestRegenGolden rewrites testdata/golden.txt from the analyzer's
// current fixture output. It is skipped unless REGEN is set:
//
//	REGEN=1 go test ./internal/lint -run TestRegenGolden
//
// Inspect the diff before committing — the golden file is the contract
// for every rule's exact diagnostic text.
func TestRegenGolden(t *testing.T) {
	if os.Getenv("REGEN") == "" {
		t.Skip("set REGEN=1 to rewrite testdata/golden.txt")
	}
	if err := os.WriteFile("testdata/golden.txt", []byte(renderFixture(t)), 0o644); err != nil {
		t.Fatal(err)
	}
}

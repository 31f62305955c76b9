// Package app tops the fixture DAG and may only import engine; the
// simcore import below is the import-layering positive.
package app

import (
	"example.com/fixture"
	"example.com/fixture/engine"
	"example.com/fixture/simcore"
)

// Main exercises the imports.
func Main() {
	engine.Drive(map[string]int{"a": 1}, func() {})
	simcore.Jitter()
	fixture.Run()
}

// Package fixture is the root package of the lint fixture module: the
// public API surface the app layer may import.
package fixture

// Run is the entry point.
func Run() int { return 1 }

// Package clockok is the fixture's progress/clock layer: fixturePolicy
// allowlists this file for no-wallclock, so its time.Now is clean.
package clockok

import "time"

// Now reads the wall clock, legally.
func Now() time.Time {
	return time.Now()
}

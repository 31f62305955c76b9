// Package simcore is a lint fixture standing in for a cycle-level model
// package: every rule has a positive hit and a clean variant here or in a
// sibling package.
package simcore

import (
	"math/rand"
	"time"
)

// Sum ranges over a map: nondet-map-range positive.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Stamp reads the wall clock: no-wallclock positive (and the math/rand
// import above is a second one).
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Jitter uses math/rand (flagged at the import, not here).
func Jitter() int {
	return rand.Intn(8)
}

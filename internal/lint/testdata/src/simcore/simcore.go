// Package simcore is a lint fixture standing in for a cycle-level model
// package: every rule has a positive hit and a clean variant here or in a
// sibling package.
package simcore

import (
	"math/rand"
	"sort"
	"time"
)

// Sum ranges over a map unsorted: nondet-map-range positive.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Keys collects keys and sorts them: the sanctioned idiom, clean.
func Keys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// KeysUnsorted collects keys but never sorts: nondet-map-range positive.
func KeysUnsorted(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
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

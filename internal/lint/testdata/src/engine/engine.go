// Package engine sits above the fixture model layer: goroutines, clock
// reads and unsorted map ranges are out of every determinism rule's
// scope here, and its simcore import is permitted by the layer DAG.
package engine

import (
	"time"

	"example.com/fixture/simcore"
)

// Drive fans work out; all of this is legal at the engine layer.
func Drive(m map[string]int, f func()) int {
	go f()
	_ = time.Now()
	n := 0
	for _, v := range m {
		n += v
	}
	return n + simcore.Sum(m)
}

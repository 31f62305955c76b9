// Package hints holds the wake-hint contract fixtures: pure and impure
// hint methods for hint-purity.
package hints

import "strings"

// Comp is the sound component: ticked by the engine package and
// exposing a side-effect-free wake hint. No findings.
type Comp struct {
	next int64
	n    int
}

// Tick advances the component.
func (c *Comp) Tick(now int64) { c.n++ }

// NextEvent is a pure hint: field reads plus a pure helper call.
func (c *Comp) NextEvent(now int64) int64 {
	if c.n == 0 {
		return c.floor(now)
	}
	return c.next
}

func (c *Comp) floor(now int64) int64 {
	if c.next < now {
		return now
	}
	return c.next
}

// FieldComp's hint mutates the component itself: a root-effect finding.
type FieldComp struct {
	scans int64
	next  int64
}

// NextEvent counts its own evaluations — a field write inside a hint.
func (f *FieldComp) NextEvent(now int64) int64 {
	f.scans++
	return f.next
}

// hintProbes counts hint evaluations module-wide.
var hintProbes int64

// TransComp's hint is impure two calls deep.
type TransComp struct{ next int64 }

// NextEvent looks pure but reaches a package-variable write through
// probe: a transitive finding reporting the call path.
func (tc *TransComp) NextEvent(now int64) int64 {
	tc.probe()
	return tc.next
}

func (tc *TransComp) probe() { bumpProbe() }

func bumpProbe() { hintProbes++ }

// ChanComp's hint signals a watcher: goroutine-start and channel-send
// findings.
type ChanComp struct {
	wake chan int64
	next int64
}

// NextEvent notifies a watcher goroutine from inside a hint.
func (cc *ChanComp) NextEvent(now int64) int64 {
	go func() { cc.wake <- now }()
	return cc.next
}

// ExternComp's hint calls outside the module: its effects cannot be
// verified, an unverifiable-call finding.
type ExternComp struct{ name string }

// NextEvent canonicalizes a label via the standard library.
func (e *ExternComp) NextEvent(now int64) int64 {
	if strings.ToUpper(e.name) == "IDLE" {
		return now + 1
	}
	return now
}

// TableComp's hint is impure, and no policy line names it: it is only
// reachable through the engine fixture's component table, the way
// core's g.parts reaches every real hint. A finding rooted at
// engine.Loop.nextWake whose call path crosses the table's interface.
type TableComp struct {
	polls int64
	next  int64
}

// NextEvent counts its own evaluations.
func (t *TableComp) NextEvent(now int64) int64 {
	t.polls++
	return t.next
}

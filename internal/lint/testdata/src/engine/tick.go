package engine

import "example.com/fixture/hints"

// The fixture cycle loop, shaped like internal/core: components are
// registered once into a table behind a small interface, and the hint
// scan is a loop over that table. hint-purity is rooted at
// Loop.nextWake only, so an impure hint is caught only if the analysis
// follows the interface dispatch into every registered adapter.

type component interface {
	wake(now int64) int64
}

// compPart adapts the sound component: no finding.
type compPart struct{ *hints.Comp }

func (p compPart) wake(now int64) int64 { return p.NextEvent(now) }

// tablePart adapts the impure one: the hint-purity finding's call path
// runs Loop.nextWake -> tablePart.wake -> TableComp.NextEvent.
type tablePart struct{ *hints.TableComp }

func (p tablePart) wake(now int64) int64 { return p.NextEvent(now) }

// Loop owns the table.
type Loop struct{ parts []component }

// NewLoop registers both components the way core.New fills g.parts.
func NewLoop(c *hints.Comp, t *hints.TableComp) *Loop {
	l := &Loop{}
	l.register(compPart{c})
	l.register(tablePart{t})
	return l
}

func (l *Loop) register(c component) { l.parts = append(l.parts, c) }

// nextWake is the hint scan: the earliest wake over the table.
func (l *Loop) nextWake(now int64) int64 {
	wake := int64(1) << 62
	for _, p := range l.parts {
		if t := p.wake(now); t < wake {
			wake = t
		}
	}
	return wake
}

// Step ticks the sound component when the scan says it is due.
func (l *Loop) Step(c *hints.Comp, now int64) {
	if l.nextWake(now) <= now {
		c.Tick(now)
	}
}

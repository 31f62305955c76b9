package experiments

import (
	"time"

	"github.com/nuba-gpu/nuba"
)

// This file is the engine's progress/ETA layer and the only place in
// the experiments package allowed to read the wall clock: lint.policy
// allowlists it for no-wallclock. Simulated results never depend on
// anything computed here — wall-clock time feeds progress lines and
// ETA estimates only, so confining it keeps the byte-identical-report
// guarantee machine-checkable.

// Event is one structured progress notification from the engine.
type Event struct {
	// Bench and Config identify the completed run.
	Bench  string
	Config string
	// Cycles, IPC and LocalFrac summarize the run.
	Cycles    int64
	IPC       float64
	LocalFrac float64
	// Done counts completed simulations; Total the simulations planned
	// so far.
	Done, Total int
	// Elapsed is the wall-clock time since the first simulation
	// started; Remaining is the linear-extrapolation ETA.
	Elapsed, Remaining time.Duration
}

// markStarted records the wall-clock start of the first simulation, for
// elapsed/ETA reporting. Callers hold r.mu.
func (r *Runner) markStarted() {
	if r.started.IsZero() {
		r.started = time.Now()
	}
}

// emitLocked reports one completed run to OnEvent. Callers hold r.mu,
// which also serializes the callbacks.
func (r *Runner) emitLocked(cfgName, abbr string, res *nuba.Result) {
	if r.opts.OnEvent == nil {
		return
	}
	ev := Event{
		Bench:  abbr,
		Config: cfgName,
		Cycles: res.Stats.Cycles, IPC: res.Stats.IPC(), LocalFrac: res.Stats.LocalFraction(),
		Done: r.done, Total: r.planned,
		Elapsed: time.Since(r.started),
	}
	if r.planned > r.done && r.done > 0 {
		ev.Remaining = time.Duration(float64(ev.Elapsed) / float64(r.done) * float64(r.planned-r.done))
	}
	r.opts.OnEvent(ev)
}

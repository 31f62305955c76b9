package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/nuba-gpu/nuba"
)

// This file is the engine's progress/ETA layer and the only place in
// the experiments package allowed to read the wall clock: lint.RepoPolicy
// allowlists it for no-wallclock. Simulated results never depend on
// anything computed here — wall-clock time feeds progress lines and
// ETA estimates only, so confining it keeps the byte-identical-report
// guarantee machine-checkable.

// Event is one structured progress notification from the engine: one
// per simulated job, finished or failed.
type Event struct {
	// Bench and Config identify the run.
	Bench  string
	Config string
	// Cycles and IPC summarize a finished run; a failed one leaves them
	// zero.
	Cycles int64
	IPC    float64
	// Err is the error text of a failed run, empty for a finished one.
	Err string
	// Done counts simulated jobs, failed ones included; Total the jobs
	// planned so far.
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

// emitLocked reports one simulated job — its result, or the error it
// failed with — to OnEvent. Callers hold r.mu, which also serializes the
// callbacks.
func (r *Runner) emitLocked(cfgName, abbr string, res *nuba.Result, err error) {
	if r.opts.OnEvent == nil {
		return
	}
	ev := Event{
		Bench:  abbr,
		Config: cfgName,
		Done:   r.done, Total: r.planned,
		Elapsed: time.Since(r.started),
	}
	if err != nil {
		ev.Err = err.Error()
	} else {
		ev.Cycles, ev.IPC = res.Stats.Cycles, res.Stats.IPC()
	}
	if r.planned > r.done && r.done > 0 {
		ev.Remaining = time.Duration(float64(ev.Elapsed) / float64(r.done) * float64(r.planned-r.done))
	}
	r.opts.OnEvent(ev)
}

// ProgressPrinter returns the OnEvent sink the command-line tools share:
// one line per simulated job with counts, elapsed time and the
// linear-extrapolation ETA, a failed job as a FAILED line.
func ProgressPrinter(w io.Writer) func(Event) {
	return func(ev Event) {
		outcome := fmt.Sprintf("cycles=%-9d ipc=%.2f", ev.Cycles, ev.IPC)
		if ev.Err != "" {
			outcome = "FAILED: " + ev.Err
		}
		line := fmt.Sprintf("  [%d/%d] %-7s on %-28s %s elapsed=%s",
			ev.Done, ev.Total, ev.Bench, ev.Config, outcome, ev.Elapsed.Round(1e8))
		if ev.Remaining > 0 {
			line += fmt.Sprintf(" eta=%s", ev.Remaining.Round(1e9))
		}
		fmt.Fprintln(w, line)
	}
}

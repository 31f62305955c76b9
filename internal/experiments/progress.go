package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/nuba-gpu/nuba"
)

// Event is one structured progress notification from the engine: one
// per simulated job, finished or failed. It carries no time: the engine
// holds no clock, so nothing it computes can depend on one.
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
}

// emitLocked reports one simulated job — its result, or the error it
// failed with — to OnEvent. Callers hold r.mu, which also serializes the
// callbacks.
func (r *Runner) emitLocked(cfgName, abbr string, res *nuba.Result, err error) {
	if r.opts.OnEvent == nil {
		return
	}
	ev := Event{Bench: abbr, Config: cfgName, Done: r.done, Total: r.planned}
	if err != nil {
		ev.Err = err.Error()
	} else {
		ev.Cycles, ev.IPC = res.Stats.Cycles, res.Stats.IPC()
	}
	r.opts.OnEvent(ev)
}

// ProgressPrinter returns the OnEvent sink the command-line tools share:
// one line per simulated job with counts, the time elapsed since the
// printer was made and the linear-extrapolation ETA, a failed job as a
// FAILED line. now is the clock both read from: the tools pass time.Now.
func ProgressPrinter(w io.Writer, now func() time.Time) func(Event) {
	start := now()
	return func(ev Event) {
		outcome := fmt.Sprintf("cycles=%-9d ipc=%.2f", ev.Cycles, ev.IPC)
		if ev.Err != "" {
			outcome = "FAILED: " + ev.Err
		}
		elapsed := now().Sub(start)
		line := fmt.Sprintf("  [%d/%d] %-7s on %-28s %s elapsed=%s",
			ev.Done, ev.Total, ev.Bench, ev.Config, outcome, elapsed.Round(1e8))
		if ev.Total > ev.Done && ev.Done > 0 {
			eta := time.Duration(float64(elapsed) / float64(ev.Done) * float64(ev.Total-ev.Done))
			if eta > 0 {
				line += fmt.Sprintf(" eta=%s", eta.Round(1e9))
			}
		}
		fmt.Fprintln(w, line)
	}
}

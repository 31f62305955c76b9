// Package model is the fixture's simulator: the sanctioned reader of
// params knobs and writer of stats counters.
package model

import (
	"example.com/fixture/params"
	"example.com/fixture/stats"
)

// Step validates the config, consumes the live knobs and bumps the
// counters. The += on Ticks is a write, not a read: reporting must
// happen in the report package.
func Step(cfg *params.Config, st *stats.Stats) {
	if cfg.Validate() != nil {
		return
	}
	st.Ticks += int64(cfg.LineBytes / cfg.Derived())
	st.Unreported++
}

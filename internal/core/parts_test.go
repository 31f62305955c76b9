package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/trace"
)

// namedConfig is one row of a table of configurations.
type namedConfig struct {
	name string
	cfg  config.Config
}

// topologies returns the five fabric shapes the builders produce, all
// at Scale(0.125): the three architectures plus the two-module MCM
// variants of the two that support it.
func topologies() []namedConfig {
	mcm := func(arch config.Arch) config.Config {
		cfg := tinyConfig(arch)
		cfg.NumModules = 2
		cfg.InterModuleGBs = 256
		return cfg
	}
	return []namedConfig{
		{"nuba", tinyConfig(config.NUBA)},
		{"uba-mem", tinyConfig(config.UBAMem)},
		{"uba-sm", tinyConfig(config.UBASMSide)},
		{"mcm-nuba", mcm(config.NUBA)},
		{"mcm-uba", mcm(config.UBAMem)},
	}
}

// timed returns the NUBA configurations whose timers the engines must wake
// for: an MDR epoch, a migration scan, the two tied with each other and
// with a memory-clock boundary on the batch lattice (the engines must run
// them in step's order), and an MDR epoch equal to the batch, so that
// every wake lands on the cycle a fast-forward aims at.
func timed() []namedConfig {
	mdr, mig, ties, atTarget := tinyConfig(config.NUBA), tinyConfig(config.NUBA), tinyConfig(config.NUBA), tinyConfig(config.NUBA)
	mdr.Replication, mdr.MDREpoch = config.MDR, 4096
	mig.Placement, mig.MigrationInterval = config.Migration, 4096
	ties.Replication, ties.Placement = config.MDR, config.Migration
	ties.MDREpoch, ties.MigrationInterval = 4*batchCycles, 4*batchCycles
	atTarget.Replication, atTarget.MDREpoch = config.MDR, batchCycles
	return []namedConfig{
		{"nuba-mdr", mdr},
		{"nuba-mig", mig},
		{"nuba-timer-ties", ties},
		{"nuba-epoch-is-batch", atTarget},
	}
}

// The component table must hold exactly one row per thing the builders
// created — no component missing from the engine's walks, none listed
// twice, one row per link set that holds a link — and a freshly built GPU
// must be idle through every row.
func TestPartsTableCoversEveryComponent(t *testing.T) {
	for _, tc := range topologies() {
		g := MustNew(tc.cfg)
		sets := map[any]bool{} // the sets that hold a link, until their row is found
		for _, s := range []struct {
			set   any
			links int
		}{{&g.smReq, len(g.smReq.L)}, {&g.sliceReply, len(g.sliceReply.L)}, {&g.inter, len(g.inter.L)}} {
			if s.links > 0 {
				sets[s.set] = true
			}
		}
		want := len(g.sms) + len(g.slices) + len(g.chans) +
			len(g.reqXbars) + len(g.replyXbars) + len(sets) + 2 // + VM system + core queues
		if len(g.parts) != want {
			t.Errorf("%s: table has %d rows, want %d", tc.name, len(g.parts), want)
		}
		if g.parts[0].component != component(g.sms[0]) {
			t.Errorf("%s: first row is %q; SMs must lead the scan order", tc.name, g.parts[0].name())
		}
		names := make(map[string]bool, len(g.parts))
		for i := range g.parts {
			p := &g.parts[i]
			if names[p.name()] {
				t.Errorf("%s: duplicate row %q", tc.name, p.name())
			}
			names[p.name()] = true
			if !p.Idle() {
				t.Errorf("%s: %s pending on a freshly built GPU", tc.name, p.name())
			}
			set := any(p.component)
			switch set.(type) {
			case *sim.Links[*sim.MemReq], *sim.Links[noc.Msg]:
			default:
				continue
			}
			if !sets[set] {
				t.Errorf("%s: %s is a second row for its set, or a row for none", tc.name, p.name())
			}
			delete(sets, set)
		}
		if len(sets) != 0 {
			t.Errorf("%s: %d link sets hold links without a table row", tc.name, len(sets))
		}
		if !g.quiet() {
			t.Errorf("%s: freshly built GPU is not quiet", tc.name)
		}
		if g.mods != len(g.reqXbars) {
			t.Errorf("%s: %d modules but %d request crossbars", tc.name, g.mods, len(g.reqXbars))
		}
	}
}

// checkConserved asserts request conservation on a drained GPU: every
// object a free list handed out has come back to it — the SMs' requests
// and LSU accesses, and the GPU's own writebacks, invalidations and page
// copies. A request leaked on some path (or retired on the wrong list)
// shows here as a nonzero count; one retired twice panics in ReqPool.Put.
func checkConserved(t *testing.T, name string, g *GPU) {
	t.Helper()
	if !g.quiet() {
		t.Fatalf("%s: conservation is only defined on a quiet GPU", name)
	}
	if n := g.reqs.Live(); n != 0 {
		t.Errorf("%s: %d GPU-owned requests (writebacks, invalidations, page copies) never retired", name, n)
	}
	for _, s := range g.sms {
		if n := s.LiveRequests(); n != 0 {
			t.Errorf("%s: SM%d has %d requests that never retired", name, s.ID, n)
		}
		if n := s.LiveAccesses(); n != 0 {
			t.Errorf("%s: SM%d has %d LSU accesses off its free list", name, s.ID, n)
		}
	}
	if n := g.LiveRequests(); n != 0 {
		t.Errorf("%s: LiveRequests() = %d on a quiet GPU", name, n)
	}
}

// checkMatchesNaive is the one cross-engine comparison: each row runs the
// tiny kernel under naive (advance never asks, so it is step in a loop) and
// under each of engines — hybrid skips, sanitize verifies and fails the run
// on an unsound hint, sleep or park — and every run must end on the same
// cycle with the same counters, the same NDJSON trace bytes and every
// request retired.
func checkMatchesNaive(t *testing.T, rows []namedConfig, engines ...Engine) {
	t.Helper()
	run := func(cfg config.Config, e Engine) string {
		g := MustNew(cfg)
		g.SetEngine(e)
		var series bytes.Buffer
		tr := trace.New(trace.Options{Series: &series, EpochCycles: 1000}, cfg.CoreClockGHz)
		tr.Begin(trace.Meta{Bench: "tiny", Config: cfg.Name(), Partitions: cfg.NumPartitions()})
		g.AttachTracer(tr)
		if err := g.RunProgram([]*kir.Launch{tinyLaunch(t, g, 32, 4)}); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if series.Len() == 0 {
			t.Fatal("empty trace — comparison is vacuous")
		}
		checkConserved(t, fmt.Sprintf("%s/%v", cfg.Name(), e), g)
		return fmt.Sprintf("cycle=%d\n%+v\n%s", g.cycle, *g.Stats(), series.Bytes())
	}
	if len(rows) == 0 {
		t.Fatal("no rows — comparison is vacuous")
	}
	for _, tc := range rows {
		naive := run(tc.cfg, EngineNaive)
		for _, e := range engines {
			if got := run(tc.cfg, e); got != naive {
				t.Errorf("%s: %v diverges from naive\nnaive: %s\n%v: %s", tc.name, e, naive, e, got)
			}
		}
	}
}

// timedRows returns the rows of timed() with the given names.
func timedRows(names ...string) []namedConfig {
	var rows []namedConfig
	for _, tc := range timed() {
		for _, n := range names {
			if tc.name == n {
				rows = append(rows, tc)
			}
		}
	}
	return rows
}

// The one cycle loop against plain stepping on every topology. The timed
// configurations go through the same comparison in TestEnginesCycleExact,
// TestSanitizeEngineCycleExact, TestSanitizeHintsSoundOnTinyKernels,
// TestEnginesWakeTies and TestEngineReactivationAtFastForwardTarget.
func TestAdvanceMatchesStep(t *testing.T) {
	checkMatchesNaive(t, topologies(), EngineHybrid, EngineSanitize)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Sleep deadlines (DESIGN.md §9) under test from the core's side. The
// three tests below write a wrong deadline through the table row's
// pointer — the place the engine reads it — so no component carries
// scaffolding for them and no Fault kind exists for them.

// napping launches the tiny kernel on one SM of a fresh NUBA GPU under
// engine e and steps until SM 0 sleeps on a scoreboard timer with live
// warps and no memory request out: a finite deadline that no door can
// clear before it comes due. It returns the GPU and SM 0's table row.
func napping(t *testing.T, e Engine, extra ...component) (*GPU, *part) {
	t.Helper()
	g := MustNew(tinyConfig(config.NUBA))
	g.SetEngine(e)
	for _, c := range extra {
		g.register(c, "test row", -1)
	}
	g.assignCTAs(tinyLaunch(t, g, 1, 4))
	row := &g.parts[0]
	if row.name() != "SM 0" || row.sleep != g.sms[0].Sleep() {
		t.Fatalf("row 0 is %q and does not point at SM 0's deadline", row.name())
	}
	for g.cycle < 1000 {
		if _, err := g.advance(g.cycle + 1); err != nil {
			t.Fatal(err)
		}
		if d := row.sleep.At(); d > g.cycle+1 && d != sim.Never {
			if g.sms[0].Idle() || g.sms[0].LiveRequests() != 0 {
				t.Fatal("scenario drifted: SM 0 must nap with live warps and nothing in flight")
			}
			return g, row
		}
	}
	t.Fatal("SM 0 never slept on a timer")
	return nil, nil
}

// busyRow is a table row that holds no work and always asks for the
// next cycle: with it registered the hint scan never finds an idle
// window, so every cycle is a stepped one.
type busyRow struct{}

func (busyRow) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }
func (busyRow) Idle() bool                       { return true }
func (busyRow) StateSig() uint64                 { return sim.SigSeed }
func (busyRow) DebugState(sim.Cycle) string      { return "" }

// A deadline one cycle late is an unsound sleep: hybrid would skip the
// tick that issues the next instruction. The sanitizer ticks every
// sleeper anyway and must fail the run naming the component and the
// cycle — here on a stepped cycle outside any idle window, where the
// whole-GPU check (verifyIdleWindow) never looks.
func TestSanitizeCatchesUnsoundSleep(t *testing.T) {
	g, row := napping(t, EngineSanitize, busyRow{})
	due := row.sleep.At()
	row.sleep.Set(due + 1)
	err := g.runUntilIdle(context.Background())
	if err == nil {
		t.Fatal("sanitize engine accepted a sleep deadline one cycle late")
	}
	want := fmt.Sprintf("sanitize: unsound sleep: SM 0 changed state when ticked at cycle %d", due)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("diagnostic = %v\nwant it to say %q", err, want)
	}
}

// Naive is the independent reference: it ticks a component whatever its
// deadline says, so a deadline of Never on an SM with live warps changes
// nothing — and every cross-engine identity suite therefore proves
// hybrid's gate, not a shared mistake.
func TestNaiveIgnoresSleep(t *testing.T) {
	clean, _ := napping(t, EngineHybrid)
	if err := clean.runUntilIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	g, row := napping(t, EngineNaive)
	row.sleep.Set(sim.Never)
	if err := g.runUntilIdle(context.Background()); err != nil {
		t.Fatalf("naive engine honoured a sleep deadline: %v", err)
	}
	if a, b := fmt.Sprintf("%+v", *clean.Stats()), fmt.Sprintf("%+v", *g.Stats()); a != b {
		t.Errorf("naive with a poisoned deadline diverges from hybrid\nhybrid: %s\nnaive:  %s", a, b)
	}
	// Naive never asks a deadline: no tick slept, no fabric phase skipped,
	// no idle window jumped.
	if es := g.EngineStats(); es.Slept != [3]int64{} || es.Skipped != 0 || es.FabricSkipped != 0 || es.Jumps != 0 {
		t.Errorf("naive slept, skipped or jumped: %v", es)
	}
	if es := clean.EngineStats(); es.Slept[kindSM] == 0 || es.Skipped == 0 || es.FabricSkipped == 0 || es.Jumps == 0 {
		t.Errorf("hybrid neither slept, skipped nor jumped: %v", es)
	}
}

// A lost wake-up — work to do, a deadline or a park that says never — is
// the bug class sleep deadlines and parks introduce. It must not burn to
// MaxCycles: it is a HangError within the first sampling interval (of a
// window shortened to 4096 cycles here; the parked scenario is set up well
// into a run, so its bound counts from there), and the report must show the
// signature: a live hint of +1 next to asleep-until=never for an SM whose
// door forgot its deadline; for a link whose head is parked till long after
// the run, the park on its set's line, and on its SM's line the send queue
// and the LSU parked behind it.
func TestLostWakeIsAHang(t *testing.T) {
	const window = 4096
	hang := func(t *testing.T, g *GPU, by sim.Cycle) (*HangError, string) {
		t.Helper()
		g.wd = newWatchdog(window)
		err := g.runUntilIdle(context.Background())
		var he *HangError
		if !errors.As(err, &he) {
			t.Fatalf("want *HangError, got %v", err)
		}
		if he.Report.Cycle > by {
			t.Errorf("hang declared at cycle %d, after cycle %d; a lost wake-up must not wait out MaxCycles", he.Report.Cycle, by)
		}
		return he, he.Report.String()
	}
	lineOf := func(report, name string) string {
		for _, l := range strings.Split(report, "\n") {
			if strings.Contains(l, name+" ") {
				return l
			}
		}
		return ""
	}
	t.Run("asleep-forever", func(t *testing.T) {
		g, row := napping(t, EngineHybrid)
		row.sleep.Set(sim.Never)
		_, s := hang(t, g, window)
		if line := lineOf(s, "SM 0"); !strings.Contains(line, "wake=+1") || !strings.HasSuffix(line, "asleep-until=never") {
			t.Errorf("report does not show the lost wake-up on SM 0's line:\n%s", s)
		}
	})
	t.Run("parked-forever", func(t *testing.T) {
		g, k, _ := parked(t, EngineHybrid)
		far := parkFar(g, k)
		he, s := hang(t, g, g.cycle+2*window)
		park := fmt.Sprintf("[%d] pending=%d parked-until=%d", k, g.smReq.L[k].Pending(), far)
		if line := lineOf(s, "SM-request links"); !strings.Contains(line, park) {
			t.Errorf("report does not show the park (%s) on the SM-request links' line:\n%s", park, s)
		}
		if line := lineOf(s, fmt.Sprintf("SM %d", k)); !strings.Contains(line, fmt.Sprintf("wake=%+d", far+1-he.Report.Cycle)) ||
			!strings.Contains(line, fmt.Sprintf(" send-parked-until=%d lsu-parked=send@%d", far+1, far+1)) {
			t.Errorf("report does not show what the park holds up on SM %d's line:\n%s", k, s)
		}
	})
}

// Every tick a kind's walks could run is run, slept or frozen, and none
// twice: Ran + Slept + frozen is the walks times the kind's count, on all
// five topologies under all three engines, with an SM wedged for a while
// and a slice slowed. An SM or slice is walked on every stepped cycle, a
// channel on every stepped memory-clock boundary — under naive, every
// boundary — and naive sleeps through none of them.
func TestTicksAddUp(t *testing.T) {
	for _, tc := range topologies() {
		for _, e := range []Engine{EngineHybrid, EngineNaive, EngineSanitize} {
			g := MustNew(tc.cfg)
			g.SetEngine(e)
			if err := g.Inject(1, Fault{Kind: WedgeSM, Target: 0, At: 50, Until: 400},
				Fault{Kind: SlowLLC, Target: 0, At: 100, Period: 3}); err != nil {
				t.Fatal(err)
			}
			if err := g.RunProgram([]*kir.Launch{tinyLaunch(t, g, 32, 4)}); err != nil {
				t.Fatalf("%s %v: %v", tc.name, e, err)
			}
			es := g.EngineStats()
			walks := [3]int64{es.Stepped, es.Stepped, es.walks[kindChan]}
			if e == EngineNaive {
				walks[kindChan] = int64(g.cycle) / int64(tc.cfg.MemClockDiv)
			}
			for k, n := range []int{len(g.sms), len(g.slices), len(g.chans)} {
				if es.walks[k] != walks[k] || es.Slept[k] < 0 || e == EngineNaive && es.Slept[k] != 0 ||
					es.Ran[k]+es.Slept[k]+es.frozen[k] != walks[k]*int64(n) {
					t.Errorf("%s %v %s: %d walks (want %d) of %d: ran %d + slept %d + frozen %d",
						tc.name, e, kindLabel[k], es.walks[k], walks[k], n, es.Ran[k], es.Slept[k], es.frozen[k])
				}
			}
			if es.frozen[kindSM] == 0 || es.frozen[kindSlice] == 0 {
				t.Errorf("%s %v: no tick frozen (%v)", tc.name, e, es.frozen)
			}
		}
	}
}

package core

import (
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// A clean sanitize run must be byte-identical to the serial reference
// under MDR: verification is plain naive stepping, so any divergence means
// the sanitizer itself perturbed the simulation (the topologies run under
// sanitize in TestAdvanceMatchesStep).
func TestSanitizeEngineCycleExact(t *testing.T) {
	checkMatchesNaive(t, timedRows("nuba-mdr"), EngineSanitize)
}

// An unbiased sanitize run under migration must report zero violations and
// match the reference — the dynamic proof that the shipped hints are sound
// on the paths the tiny kernel exercises (the two-module MCM runs under
// sanitize in TestAdvanceMatchesStep; the full Table 2 suite runs in the
// root package's TestSanitizeSuite).
func TestSanitizeHintsSoundOnTinyKernels(t *testing.T) {
	checkMatchesNaive(t, timedRows("nuba-mig"), EngineSanitize)
}

// The sanitizer's reason to exist: a deliberately optimistic hint — the
// scan's claimed wake pushed past the true next event — must fail the
// run with a diagnostic naming the cycle and the component, while the
// reference engine (which never consults hints) completes normally.
func TestSanitizeCatchesInjectedBadHint(t *testing.T) {
	run := func(e Engine, bias int64) error {
		g := MustNew(tinyConfig(config.NUBA))
		g.SetEngine(e)
		if err := g.Inject(0, Fault{Kind: HintBias, Bias: bias}); err != nil {
			t.Fatal(err)
		}
		l := tinyLaunch(t, g, 32, 4)
		return g.RunProgram([]*kir.Launch{l})
	}
	if err := run(EngineNaive, 64); err != nil {
		t.Fatalf("naive engine must ignore hints entirely: %v", err)
	}
	err := run(EngineSanitize, 64)
	if err == nil {
		t.Fatal("sanitize engine accepted a hint biased 64 cycles past the true wake")
	}
	msg := err.Error()
	if !strings.Contains(msg, "sanitize: unsound wake hint") {
		t.Errorf("diagnostic does not identify the violation kind: %v", err)
	}
	if !strings.Contains(msg, "at cycle") || !strings.Contains(msg, "idle window") {
		t.Errorf("diagnostic does not pin the violation to a cycle and window: %v", err)
	}
}

// impureRow is a table row that holds no work and whose hint is not a
// pure observation: every scan bumps a counter its signature mixes.
// Without jitter it never asks to be woken, so it cannot shorten an
// idle window; with jitter its answer alternates between two future
// cycles from one call to the next.
type impureRow struct {
	scans  uint64
	jitter bool
}

func (r *impureRow) NextWake(now sim.Cycle) sim.Cycle {
	r.scans++
	if r.jitter {
		return now + 2 + sim.Cycle(r.scans%2)
	}
	return sim.Never
}
func (r *impureRow) Idle() bool                  { return true }
func (r *impureRow) StateSig() uint64            { return sim.MixSig(sim.SigSeed, r.scans) }
func (r *impureRow) DebugState(sim.Cycle) string { return "" }

// A hint scan must be a pure observation, or the scan itself is a
// simulation event that naive (which never scans) does not replay. The
// sanitizer states that dynamically: it scans a second time after its
// snapshot, so a hint that mutates signed state trips the first
// per-step comparison and a hint whose answer moves fails outright.
// Hybrid cannot see either — which is why the check lives here.
func TestSanitizeCatchesImpureHint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		jitter bool
		want   string
	}{
		{"mutates-signed-state", false, "impure row changed state"},
		{"answer-moves", true, "hint scan not repeatable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(e Engine) error {
				g := MustNew(tinyConfig(config.NUBA))
				g.SetEngine(e)
				g.register(&impureRow{jitter: tc.jitter}, "impure row", -1)
				return g.RunProgram([]*kir.Launch{tinyLaunch(t, g, 32, 4)})
			}
			if err := run(EngineHybrid); err != nil {
				t.Fatalf("hybrid engine cannot see an impure hint: %v", err)
			}
			err := run(EngineSanitize)
			if err == nil {
				t.Fatal("sanitize engine accepted an impure hint")
			}
			if msg := err.Error(); !strings.Contains(msg, "sanitize: unsound wake hint: "+tc.want) {
				t.Errorf("diagnostic = %v, want it to say %q", err, tc.want)
			}
		})
	}
}

// A fabric deadline that stayed late — here, a reply injected into a
// crossbar after the deadline lost its members — is an unsound gate:
// hybrid skips the phase that would move the reply, and the sanitizer,
// which runs every skipped phase, fails the run naming the crossbar.
func TestSanitizeCatchesStaleFabricDeadline(t *testing.T) {
	for _, e := range []Engine{EngineHybrid, EngineSanitize} {
		g := MustNew(tinyConfig(config.NUBA))
		g.SetEngine(e)
		reply := noc.Msg{Req: &sim.MemReq{Kind: sim.Load, SM: 0}, Dst: 0, Bytes: sim.DataBytes, Reply: true}
		if !g.replyXbars[0].Inject(1, g.cycle, reply) {
			t.Fatal("inject rejected")
		}
		g.fabric = sim.Deadline{} // no members: every refold says Never
		g.fabric.Refold()
		g.step()
		in, _, _ := g.replyXbars[0].Occupied()
		switch {
		case e == EngineHybrid && (in != 1 || g.es.FabricSkipped != 1):
			t.Errorf("hybrid: %d input queues hold the reply after a skipped phase (skipped %d), want 1", in, g.es.FabricSkipped)
		case e == EngineSanitize && (g.unsound == nil || !strings.Contains(g.unsound.Error(), "unsound fabric deadline: reply crossbar 0")):
			t.Errorf("sanitize: %v, want an unsound fabric deadline naming reply crossbar 0", g.unsound)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// wdRun runs the tiny kernel with the given faults armed and the
// watchdog's window shortened to window (0 = the configuration's own).
func wdRun(t *testing.T, window sim.Cycle, faults ...Fault) (*GPU, error) {
	t.Helper()
	g := MustNew(tinyConfig(config.NUBA))
	if err := g.Inject(0, faults...); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if window > 0 {
		g.wd = newWatchdog(window)
	}
	l := tinyLaunch(t, g, 32, 4)
	return g, g.RunProgram([]*kir.Launch{l})
}

// A clean run must be untouched by the watchdog however tight its
// window: the same cycle count at the configuration's window and at one
// sampled fifty times as often, no error. The watchdog only reads pure
// signatures.
func TestWatchdogCleanRunIdentical(t *testing.T) {
	gWide, err := wdRun(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	gTight, err := wdRun(t, 4096)
	if err != nil {
		t.Fatalf("watchdog flagged a healthy run: %v", err)
	}
	if a, b := gWide.Stats().Cycles, gTight.Stats().Cycles; a != b {
		t.Fatalf("watchdog perturbed the run: %d cycles at the derived window, %d at 4096", a, b)
	}
}

// A wedged SM freezes the machine with work outstanding; the watchdog
// must fail the run with a structured report naming stuck components.
func TestWatchdogCatchesWedgedSM(t *testing.T) {
	_, err := wdRun(t, 8192, Fault{Kind: WedgeSM, At: 2000})
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	r := he.Report
	if r.Reason != "no-progress" && r.Reason != "deadlock" {
		t.Fatalf("unexpected reason %q", r.Reason)
	}
	if len(r.Stuck) == 0 {
		t.Fatal("report names no stuck components")
	}
	if !strings.Contains(r.String(), "SM 0") {
		t.Errorf("report does not name the wedged SM:\n%s", r.String())
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("one-line error does not identify the watchdog: %v", err)
	}
}

// A dropped DRAM reply leaves an MSHR waiting forever: every wake hint
// goes to Never while work is pending, so the deadlock fast path fires
// at the next check — no full no-progress window needed.
func TestWatchdogCatchesDroppedDRAMReply(t *testing.T) {
	_, err := wdRun(t, 1<<20, Fault{Kind: DropDRAMReply, After: 3})
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	if he.Report.Reason != "deadlock" {
		t.Fatalf("want deadlock report, got %q:\n%s", he.Report.Reason, he.Report.String())
	}
	if he.Report.Cycle >= 1<<20 {
		t.Fatalf("deadlock detection waited for the no-progress window (cycle %d)", he.Report.Cycle)
	}
}

// A stalled LLC slice and a stalled request crossbar both freeze the
// progress signature while claiming next-cycle wakes: the no-progress
// path must catch each within ~1.25 windows of the stall.
func TestWatchdogCatchesStalls(t *testing.T) {
	for name, f := range map[string]Fault{
		"llc": {Kind: StallLLC, At: 2000},
		"noc": {Kind: StallNoC, At: 2000},
	} {
		_, err := wdRun(t, 8192, f)
		var he *HangError
		if !errors.As(err, &he) {
			t.Fatalf("%s: want *HangError, got %v", name, err)
		}
		if max := sim.Cycle(2000 + 8192*2); he.Report.Cycle > max {
			t.Errorf("%s: detection at cycle %d, want <= %d", name, he.Report.Cycle, max)
		}
	}
}

// A slow-but-live component makes progress every period; the watchdog
// must not flag it as long as the window exceeds the period.
func TestWatchdogSlowComponentNoFalsePositive(t *testing.T) {
	_, err := wdRun(t, 32768, Fault{Kind: SlowLLC, At: 2000, Period: 64})
	if err != nil {
		t.Fatalf("watchdog flagged a slow-but-live run: %v", err)
	}
}

// A transient stall shorter than the window must ride through cleanly,
// and the run must still complete with the right result.
func TestWatchdogToleratesTransientStall(t *testing.T) {
	clean, err := wdRun(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := wdRun(t, 32768, Fault{Kind: StallLLC, At: 2000, Until: 4000})
	if err != nil {
		t.Fatalf("watchdog flagged a transient stall: %v", err)
	}
	if g.Stats().Cycles < clean.Stats().Cycles {
		t.Fatalf("stalled run finished in %d cycles, faster than the clean run's %d",
			g.Stats().Cycles, clean.Stats().Cycles)
	}
}

// The report renders wake hints relative to the hang cycle, says so when
// a row's stored sleep deadline lies beyond its live hint (a lost
// wake-up) and summarizes per kind what the listing left out.
func TestHangReportRendering(t *testing.T) {
	// A crossbar wedged with its one message past the input stage: the
	// row says where it sits (Occupancy, input queues only, reads 0).
	x := noc.NewCrossbar(16, 16, 16, 8, 8, 8)
	x.Inject(0, 990, noc.Msg{Req: &sim.MemReq{}, Dst: 9, Bytes: sim.ReqBytes})
	x.Tick(991)
	r := HangReport{
		Cycle: 1000, LastProgress: 500, Window: 400, Reason: "no-progress",
		Stuck: []ComponentState{
			{Name: "SM 0", Wake: 1001, Detail: "warps=3"},
			{Name: "LLC slice 1", Wake: sim.Never, Detail: "mshr=2"},
			{Name: "LLC slice 2", Wake: 1001, AsleepUntil: sim.Never, Detail: "lmr=1"},
			{Name: "DRAM channel 0", Wake: 1004, AsleepUntil: 1040, Detail: "q=1"},
			{Name: "req crossbar 0", Wake: x.NextWake(1000), Detail: x.DebugState(1000)},
		},
		omitted: []kindCount{{"SM", 60}, {"LLC slice", 3}},
	}
	s := r.String()
	for _, want := range []string{"cycle 1000", "no-progress", "SM 0", "wake=+1", "wake=never",
		"req crossbar 0", "in=0 mid=1 out=0",
		"mshr=2\n", "lmr=1 asleep-until=never\n", "wake=+4       q=1 asleep-until=+40\n",
		"... and 60 more pending", "... and 3 more pending"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	e := &HangError{Report: r}
	if msg := e.Error(); !strings.Contains(msg, "SM 0") || strings.Contains(msg, "\n") {
		t.Errorf("one-line error must name the first stuck component on a single line: %q", msg)
	}
}

// A hang on a GPU with more SMs than the listing shows of one kind must
// still list the memory side: the cap is per component kind, and every
// pending component is either listed or counted.
func TestCaptureHangCapsPerKind(t *testing.T) {
	g, err := wdRun(t, 8192, Fault{Kind: StallLLC, Target: 0, At: 2000})
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	pending, kindOf := map[string]int{}, map[string]string{}
	for i := range g.parts {
		if p := &g.parts[i]; !p.Idle() {
			pending[p.label]++
			kindOf[p.name()] = p.label
		}
	}
	if pending["SM"] <= hangReportMaxPerKind || pending["LLC slice"] == 0 {
		t.Fatalf("the scenario must leave more than %d SMs and a slice pending: %v", hangReportMaxPerKind, pending)
	}
	r := he.Report
	listed := map[string]int{}
	for _, c := range r.Stuck {
		listed[kindOf[c.Name]]++
	}
	for _, k := range r.omitted {
		if listed[k.label] != hangReportMaxPerKind {
			t.Errorf("%s: %d listed next to a summary of %d more", k.label, listed[k.label], k.n)
		}
		listed[k.label] += k.n
	}
	for label, n := range pending {
		if listed[label] != n {
			t.Errorf("%s: %d pending, %d listed or counted\n%s", label, n, listed[label], r.String())
		}
	}
}

// An injected panic escapes the core (isolation is the experiment
// pool's job, not the model's).
func TestInjectPanicFires(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not fire")
		}
		if !strings.Contains(fmt.Sprint(r), "injected fault") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	g := MustNew(tinyConfig(config.NUBA))
	if err := g.Inject(0, Fault{Kind: PanicAt, At: 1000}); err != nil {
		t.Fatal(err)
	}
	l := tinyLaunch(t, g, 32, 4)
	_ = g.RunProgram([]*kir.Launch{l})
}

// One cold page fault is the longest a healthy machine sits with every
// signature frozen: the event heap, the walkers and every queue hold
// still for PageFaultLatency cycles. The window is worked out from that
// latency, so the run finishes — at Baseline()'s penalty, where the
// 16384 cycles docs/ROBUSTNESS.md used to call safe declared a hang, at
// four times it, and at sixteen times it, where Baseline()'s own window
// held constant would.
func TestWatchdogRidesOutAColdFault(t *testing.T) {
	k := kir.MustParse(`
.kernel coldload
.param .ptr A
  mov r0, %tid
  shl r1, r0, 3
  ld.global.u64 r2, [A + r1]
  exit
`)
	for _, mult := range []sim.Cycle{1, 4, 16} {
		cfg := tinyConfig(config.NUBA)
		cfg.ColdStart = true
		cfg.PageFaultLatency *= mult
		g := MustNew(cfg)
		const size = 256 * 8
		l := &kir.Launch{Kernel: k, GridDim: 1, CTAThreads: 256,
			Buffers: []kir.Binding{{Base: g.NewBuffer(size), Size: size}}}
		if err := g.RunProgram([]*kir.Launch{l}); err != nil {
			t.Fatalf("PageFaultLatency x%d: %v", mult, err)
		}
		// The walk, the fault and one DRAM access: 608 cycles at x1.
		st, lat := g.Stats(), int64(cfg.PageFaultLatency)
		if st.PageFaults != 1 || st.Cycles <= lat || st.Cycles > lat+1024 {
			t.Errorf("PageFaultLatency x%d: %d page faults in %d cycles, want 1 in a little over %d",
				mult, st.PageFaults, st.Cycles, lat)
		}
	}
}

package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Parks (DESIGN.md §9) under test from the core's side. Like the sleep
// tests, these write a wrong park where the engine reads it — the wake of
// an SM-request link, which the core owns — so no component carries
// scaffolding for them and no Fault kind exists for them.

// congestedConfig is the tiny NUBA GPU with pages dealt round-robin: three
// of four accesses leave their partition, and the stores of tinyStream, a
// line each, queue up at the crossbar's input ports.
func congestedConfig() config.Config {
	cfg := tinyConfig(config.NUBA)
	cfg.Placement = config.RoundRobin
	return cfg
}

// parked launches the tiny kernel on a fresh congested GPU under engine e
// and steps until a crossbar input port, refusing an SM-request link's
// arrived head while it serializes the head before, parks the link: the
// exact bound, so that the head is taken on the very cycle the park ends.
// It returns the GPU, the link and the park's end.
func parked(t *testing.T, e Engine) (g *GPU, k int, until sim.Cycle) {
	t.Helper()
	g = MustNew(congestedConfig())
	g.SetEngine(e)
	g.assignCTAs(tinyLaunch(t, g, 32, 8))
	for g.cycle < 200_000 {
		if _, err := g.advance(g.cycle + 1); err != nil {
			t.Fatal(err)
		}
		for k := range g.smReq.L {
			until := g.smReq.W.At(k)
			if until > g.cycle+1 && until < sim.Never && g.smReq.L[k].NextReady() <= g.cycle && tight(g, k, until) {
				return g, k, until
			}
		}
	}
	t.Fatal("no SM-request link was ever parked on a serializing port")
	return nil, 0, 0
}

// tight reports whether link k's head, parked until the given cycle, is
// refused by nothing but its input port's serialization, which ends then.
func tight(g *GPU, k int, until sim.Cycle) bool {
	req, _ := g.smReq.L[k].Peek(g.cycle)
	part := g.sms[k].Part
	if req.ReplicaSlice >= 0 || g.slices[req.Slice].Part == part {
		return false
	}
	src := g.partitionSlice(part, req.Addr)
	x := g.reqXbars[g.moduleOfSlice(src)]
	port := src % g.slicesPerMod
	return !x.CanInject(port, until-1) && x.RetryInject(port, g.cycle, 0) == until
}

// A park one cycle late is the bug parks can introduce: hybrid would offer
// the head a cycle after its receiver would have taken it, and every cycle
// downstream moves. The sanitizer offers every parked head on every cycle
// all the same and must fail the run naming the site, the cycle the head
// went and the park it broke.
func TestSanitizeCatchesLatePark(t *testing.T) {
	g, k, until := parked(t, EngineSanitize)
	g.smReq.W.Set(k, until+1)
	err := g.runUntilIdle(context.Background())
	want := fmt.Sprintf("sanitize: unsound park: SM-request link %d: head taken at cycle %d, parked until %d", k, until, until+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a park one cycle late: error %v\nwant it to say %q", err, want)
	}
}

// A park whose door never opens — here, one that ends long after the run
// would have — is the same unsoundness to the sanitizer, and to hybrid a
// hang (TestLostWakeIsAHang): the link does not drain and its SM's send
// queue backs up behind it.
func TestSanitizeCatchesForgottenDoor(t *testing.T) {
	g, k, until := parked(t, EngineSanitize)
	far := parkFar(g, k)
	err := g.runUntilIdle(context.Background())
	want := fmt.Sprintf("sanitize: unsound park: SM-request link %d: head taken at cycle %d, parked until %d", k, until, far)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a park with no end: error %v\nwant it to say %q", err, want)
	}
}

// A park that ends early is harmless — the head is offered once more and
// refused — under every engine: the same statistics as the clean run.
func TestEarlyParkIsHarmless(t *testing.T) {
	clean, _, _ := parked(t, EngineHybrid)
	if err := clean.runUntilIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", *clean.Stats())
	for _, e := range []Engine{EngineHybrid, EngineSanitize} {
		g, k, until := parked(t, e)
		g.smReq.W.Set(k, until-1)
		if err := g.runUntilIdle(context.Background()); err != nil {
			t.Fatalf("%v: a park one cycle early failed the run: %v", e, err)
		}
		if got := fmt.Sprintf("%+v", *g.Stats()); got != want {
			t.Errorf("%v: a park one cycle early moved the run\nclean: %s\nearly: %s", e, want, got)
		}
	}
}

// Naive is the reference for parks as it is for sleep: it offers every head
// on every cycle whatever was parked, so it makes more offers than hybrid
// at the congested sites, has exactly as many taken at every site, and ends
// on the same statistics — which is what lets the cross-engine suites prove
// the bounds rather than share a mistake.
func TestNaiveNeverParks(t *testing.T) {
	run := func(e Engine) (*GPU, EngineStats) {
		g := MustNew(congestedConfig())
		g.SetEngine(e)
		if err := g.RunProgram([]*kir.Launch{tinyLaunch(t, g, 32, 8)}); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return g, g.EngineStats()
	}
	hg, hybrid := run(EngineHybrid)
	ng, naive := run(EngineNaive)
	if a, b := fmt.Sprintf("%+v", *hg.Stats()), fmt.Sprintf("%+v", *ng.Stats()); a != b {
		t.Fatalf("hybrid diverges from naive\nhybrid: %s\nnaive:  %s", a, b)
	}
	for i, n := range naive.Sites {
		h := hybrid.Sites[i]
		if n.Offered-n.Refused != h.Offered-h.Refused {
			t.Errorf("%s: naive had %d offers taken, hybrid %d", siteLabel[i], n.Offered-n.Refused, h.Offered-h.Refused)
		}
		if h.Refused > n.Refused {
			t.Errorf("%s: hybrid was refused %d times, naive only %d", siteLabel[i], h.Refused, n.Refused)
		}
	}
	for _, site := range []int{siteSMSend, siteLSU, siteSMReqDrain, siteReqStage1, siteOutbox} {
		if h, n := hybrid.Sites[site].Refused, naive.Sites[site].Refused; n == 0 || 2*h > n {
			t.Errorf("%s: hybrid refused %d, naive %d; parks should spare at least half of a congested site's refusals", siteLabel[site], h, n)
		}
	}
	if _, again := run(EngineHybrid); again != hybrid {
		t.Errorf("the counters do not repeat run to run:\n%v\n%v", hybrid, again)
	}
}

// parkFar parks link k's head until long after the run would have ended.
func parkFar(g *GPU, k int) sim.Cycle {
	far := g.cycle + 1<<30
	g.smReq.W.Set(k, far)
	return far
}

// The one full-buffer bound no run reaches: a slice-reply link's drain
// always delivers, so the link holds what is in flight and never fills —
// the serialization bound is what parks a slice there. Filled by hand with
// store acknowledgements (four to a cycle on a 32-byte link), it must show
// its two kinds of sender room where step's order puts it: a slice, which
// runs after the drain, the cycle the head arrives; the reply crossbar's
// egress, which runs before it, the cycle after — and a reply waiting
// there is parked until then, not offered on the cycle between, and taken
// on that cycle.
func TestSliceSeesRoomTheCycleTheReplyLinkDrains(t *testing.T) {
	g := MustNew(tinyConfig(config.NUBA))
	ack := func() *sim.MemReq { return &sim.MemReq{Kind: sim.Store, SM: 0, ReplicaSlice: -1} }
	const now = 10
	// A reply for slice 0's SMs, arrived at its reply-crossbar egress port
	// long before the link fills.
	egress := &g.replyXbars[0].Out
	egress.Send(0, 1, noc.Msg{Req: ack(), Reply: true, Bytes: sim.ReqBytes}, sim.ReqBytes)
	sent := 0
	for c := sim.Cycle(now); sent < g.cfg.LocalLinkBuffer; c++ {
		for g.nubaSendLocalReply(0, ack(), c, behindFabric) == sim.Accepted {
			sent++
		}
	}
	arrives := g.sliceReply.L[0].NextReady()
	at := arrives - 1 // refused on a full buffer, nothing else: the backlog has drained
	if g.slices[0].SendReply(ack(), at) || !strings.Contains(g.slices[0].DebugState(at), fmt.Sprintf(" outbox-parked-until=%d", arrives)) {
		t.Errorf("slice 0 refused at %d by the full link: %q, want its outbox parked until the head's arrival, %d", at, g.slices[0].DebugState(at), arrives)
	}
	g.moveXbars(at)
	if egress.W.At(0) != arrives+1 || egress.Offers != (sim.Offers{Offered: 1, Refused: 1}) {
		t.Errorf("the reply crossbar's egress refused at %d by the full link: parked until %d (offers %+v), want the cycle after the head's arrival, %d", at, egress.W.At(0), egress.Offers, arrives+1)
	}
	// And that is when each is in fact taken: the drain at the arrival cycle
	// makes the room a slice finds later in the same cycle, and the egress
	// the next.
	g.moveXbars(arrives)
	sim.Drain(&g.sliceReply, g, arrives, func(*GPU, int, *sim.MemReq, sim.Cycle) sim.Cycle { return sim.Accepted })
	if !g.sliceReply.L[0].CanSend(arrives) {
		t.Errorf("a slice is still refused at %d, after the drain took the head", arrives)
	}
	g.moveXbars(arrives + 1)
	if egress.W.Any() || egress.Offers != (sim.Offers{Offered: 2, Refused: 1}) {
		t.Errorf("the parked reply: offers %+v by cycle %d, want one refused and one taken then", egress.Offers, arrives+1)
	}
}

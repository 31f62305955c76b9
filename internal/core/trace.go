package core

// Tracing support: the epoch sampler behind internal/trace. AttachTracer
// installs a tracer; the cycle loop then emits one EpochSample every
// EpochCycles (deltas of the cumulative component counters against the
// snapshot kept here), the MDR controller's OnDecision hook feeds
// decision records, and run.go/route.go emit kernel spans and placement
// events. With no tracer attached the per-cycle cost is one nil check.

import (
	"github.com/nuba-gpu/nuba/internal/mdr"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/trace"
)

// traceState is the sampler's previous-counter snapshot: everything
// needed to turn the cumulative Stats/component counters into per-epoch
// deltas.
type traceState struct {
	next  sim.Cycle // next sample boundary
	last  sim.Cycle // previous sample boundary
	epoch int64     // samples emitted so far

	prev      metrics.Stats // the Stats at the previous sample boundary
	nocBytes  int64
	groupBusy []int64

	// mdrReplies/mdrCycle measure observed bandwidth per MDR epoch
	// (which may differ from the sampling epoch under -trace-epoch).
	mdrReplies int64
	mdrCycle   sim.Cycle
}

// AttachTracer installs the tracing sink; call before running kernels.
// A nil tracer (the default) leaves tracing off.
func (g *GPU) AttachTracer(t *trace.Tracer) {
	g.tracer = t
	if t == nil {
		return
	}
	groups := 0
	if len(g.chans) > 0 {
		groups = g.chans[0].BankGroups()
	}
	g.tr = traceState{next: t.EpochCycles(), groupBusy: make([]int64, groups)}
	if g.mdrCtl != nil {
		g.mdrCtl.OnDecision = g.traceMDRDecision
	}
}

// traceSample emits one epoch sample covering (tr.last, now].
func (g *GPU) traceSample(now sim.Cycle) {
	elapsed := now - g.tr.last
	if elapsed <= 0 {
		return
	}
	stats, prev := g.stats, &g.tr.prev
	g.tr.epoch++
	s := trace.EpochSample{Epoch: g.tr.epoch, Cycle: now, Cycles: int64(elapsed)}

	s.NPB = g.drv.NPB()
	s.PartBalance = g.drv.ChannelBalance()

	var lmr, rmr int
	for _, sl := range g.slices {
		l, r := sl.QueueDepths()
		lmr += l
		rmr += r
	}
	if n := len(g.slices); n > 0 {
		s.LMROcc = float64(lmr) / float64(n)
		s.RMROcc = float64(rmr) / float64(n)
	}

	nocBytes, _, occ := g.nocTotals()
	s.NoCOcc = int64(occ)
	s.NoCBytes = nocBytes - g.tr.nocBytes
	g.tr.nocBytes = nocBytes
	// noc_util normalizes by the fabric's nominal aggregate injection
	// bandwidth: every crossbar input port at full width. The reply
	// fabric mirrors the request fabric, so its inputs are the request
	// fabric's outputs and the port count is NoCGeometry's.
	ports, width := g.NoCGeometry()
	if capacity := ports * width; capacity > 0 {
		s.NoCUtil = float64(s.NoCBytes) / (float64(elapsed) * float64(capacity))
	}

	dAcc := stats.LLCAccesses - prev.LLCAccesses
	dHits := stats.LLCHits - prev.LLCHits
	if dAcc > 0 {
		s.LLCHitRate = float64(dHits) / float64(dAcc)
		s.LLCMissRate = float64(dAcc-dHits) / float64(dAcc)
	}

	dLocal := stats.LocalAccesses - prev.LocalAccesses
	dPlace := dLocal + stats.RemoteAccesses - prev.RemoteAccesses
	dRep := stats.ReplicatedAccesses - prev.ReplicatedAccesses
	if dPlace > 0 {
		s.LocalFrac = float64(dLocal) / float64(dPlace)
		s.RepHitRate = float64(dRep) / float64(dPlace)
	}

	s.RepliesPerCycle = float64(stats.Replies-prev.Replies) / float64(elapsed)
	*prev = *stats

	s.DRAMGroupBusy = g.traceGroupBusy(elapsed)

	if g.mdrCtl != nil {
		s.HaveMDR = true
		s.MDRReplicating = g.mdrCtl.Replicating()
	}

	g.tracer.EpochSample(s)
	g.tr.last = now
}

// traceGroupBusy computes each bank group's data-bus busy fraction over
// the window, aggregated across channels.
func (g *GPU) traceGroupBusy(elapsed sim.Cycle) []float64 {
	groups := len(g.tr.groupBusy)
	if groups == 0 || len(g.chans) == 0 {
		return nil
	}
	cur := make([]int64, groups)
	for _, ch := range g.chans {
		for i, v := range ch.GroupBusyCycles() {
			cur[i] += v
		}
	}
	elapsedMem := int64(elapsed) / int64(g.cfg.MemClockDiv)
	out := make([]float64, groups)
	if elapsedMem > 0 {
		denom := float64(elapsedMem) * float64(len(g.chans))
		for i := range out {
			out[i] = float64(cur[i]-g.tr.groupBusy[i]) / denom
		}
	}
	g.tr.groupBusy = cur
	return out
}

// traceMDRDecision is the mdr.Controller OnDecision hook: it adds the
// observed bandwidth of the ending epoch (data replies delivered per
// cycle, in line bytes — the quantity the model predicts) and forwards
// the record.
func (g *GPU) traceMDRDecision(ev mdr.DecisionEvent) {
	d := trace.MDRDecision{
		Cycle:          ev.Now,
		Epoch:          ev.Epoch,
		Replicating:    ev.Replicating,
		Next:           ev.Next,
		Held:           ev.Held,
		PredNoRepBPC:   ev.PredNoRep,
		PredFullRepBPC: ev.PredFullRep,
		ApplyAt:        ev.ApplyAt,
	}
	replies := g.stats.Replies
	if dc := ev.Now - g.tr.mdrCycle; dc > 0 {
		d.ObservedBPC = float64(replies-g.tr.mdrReplies) * float64(sim.LineSize) / float64(dc)
	}
	g.tr.mdrReplies, g.tr.mdrCycle = replies, ev.Now
	g.tracer.MDRDecision(d)
}

// traceFinish flushes the final partial sample at end of program.
func (g *GPU) traceFinish() {
	if g.tracer != nil && g.cycle > g.tr.last {
		g.traceSample(g.cycle)
	}
}

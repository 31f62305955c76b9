package core

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Routing shared by every architecture: the helpers the builders
// (arch_nuba.go, arch_uba.go) assemble their fabrics from, the ports no
// architecture changes, and the one fabric phase of step (moveFabric).

// The two places a sender can stand relative to the fabric phase of step,
// as the lag it hands a receiver's bound: SMs, the SM-request links' drain
// and the crossbars' egress drains run before the other link sets drain, so
// they see a slot a cycle after it frees; slices run after, and see it the
// same cycle.
const (
	aheadOfFabric sim.Cycle = 1
	behindFabric  sim.Cycle = 0
)

// partitionSlice picks the slice of a partition that passes through /
// replicates a given line (the least significant randomized bank bits, as
// in the home-slice selection).
func (g *GPU) partitionSlice(part int, addr uint64) int {
	spp := g.cfg.SlicesPerPartitionActual()
	if spp == 1 {
		return part
	}
	// Row-granular hashing keeps the lines of one DRAM row behind the
	// same slice so their miss stream preserves row locality at the
	// memory controller (mirroring the home-slice selection, which uses
	// the least-significant randomized bank bits).
	return part*spp + int(sim.Mix(addr/addrmap.RowBytes)%uint64(spp))
}

// recordPlacementAccess feeds the §7.6 migration/replication counters and
// collapses page replicas on writes.
func (g *GPU) recordPlacementAccess(req *sim.MemReq, part int) {
	if g.cfg.Placement != config.Migration && g.cfg.Placement != config.PageReplication {
		return
	}
	vpn := req.VAddr >> g.mapper.PageShift()
	p, ok := g.drv.Lookup(vpn)
	if !ok {
		return
	}
	if req.IsWrite() && p.Replicas != nil {
		g.drv.CollapseReplicas(p)
		g.shootdown(vpn)
		if g.tracer != nil {
			g.tracer.ReplicaCollapse(g.cycle, vpn)
		}
	}
	before := g.drv.Replications
	g.drv.RecordAccess(p, part)
	if g.drv.Replications != before {
		// A replica was just created: charge the 4 KB copy and the
		// shootdown that redirects the reader partition to it.
		g.chargePageCopy(p.PPN, p.Replicas[part])
		g.shootdown(vpn)
		if g.tracer != nil {
			g.tracer.PageReplication(g.cycle, vpn, part)
		}
	}
}

// pageLookup returns the SM's page-table consultation seam: the driver
// lookup that finishes a translation after an L1 TLB hit. busy reports
// a frame mid-migration; ok whether a mapping exists yet.
func (g *GPU) pageLookup(part int) func(uint64, sim.Cycle) (uint64, bool, bool) {
	return func(vpn uint64, now sim.Cycle) (ppn uint64, busy, ok bool) {
		ppn, busyUntil, ok := g.drv.Resolve(vpn, part)
		if busyUntil > now {
			return 0, true, false
		}
		return ppn, false, ok
	}
}

// shootdown flushes a VPN from the shared L2 TLB and every L1 TLB.
func (g *GPU) shootdown(vpn uint64) {
	g.vmsys.Shootdown(vpn)
	for _, s := range g.sms {
		s.L1TLB().Flush(vpn)
	}
}

// chargePageCopy enqueues background DRAM traffic copying one page from
// frame src to frame dst (line reads + line writes).
func (g *GPU) chargePageCopy(src, dst uint64) {
	from, to := g.mapper.FrameToAddr(src), g.mapper.FrameToAddr(dst)
	// A page lives in one channel.
	fromCh, toCh := int16(g.mapper.Channel(from)), int16(g.mapper.Channel(to))
	lines := int(g.cfg.PageSize) / sim.LineSize
	for i := 0; i < lines; i++ {
		off := uint64(i * sim.LineSize)
		g.migQueue.Push(g.reqs.Get(sim.MemReq{Kind: sim.Load, Addr: from | off, Size: sim.LineSize, SM: -1, DstReg: -1, Channel: fromCh, ReplicaSlice: -1}))
		g.migQueue.Push(g.reqs.Get(sim.MemReq{Kind: sim.Store, Addr: to | off, Size: sim.LineSize, SM: -1, DstReg: -1, Channel: toCh, ReplicaSlice: -1}))
	}
}

// drainMigQueue issues queued page-copy traffic into the channels.
func (g *GPU) drainMigQueue() {
	for {
		req, ok := g.migQueue.Peek()
		if !ok {
			return
		}
		ch := g.chans[req.Channel]
		if !ch.CanEnqueue() {
			return
		}
		ch.Enqueue(req)
		g.migQueue.Pop()
	}
}

// accountService classifies a serviced L1 miss for the Figure 9 breakdown.
func (g *GPU) accountService(req *sim.MemReq) {
	if req.SM < 0 {
		return
	}
	if req.Remote {
		g.stats.RemoteAccesses++
		return
	}
	g.stats.LocalAccesses++
	if req.Replicated {
		g.stats.ReplicatedAccesses++
	}
}

// storeDone retires a committed store at its SM (no wire traffic; see
// DESIGN.md on acknowledgements).
func (g *GPU) storeDone(req *sim.MemReq, now sim.Cycle) {
	if req.SM < 0 {
		return
	}
	g.accountService(req)
	g.sms[req.SM].AcceptReply(req, now)
}

// homeChannel returns the channel a request leaving a slice is bound
// for. An SM's request had it decoded when it was sent; a writeback is
// created by a slice, which has no address map, so it leaves the slice
// undecoded (-1) and is decoded here, the first time it is offered.
func (g *GPU) homeChannel(req *sim.MemReq) int {
	if req.Channel < 0 {
		req.Channel = int16(g.mapper.Channel(req.Addr))
	}
	return int(req.Channel)
}

// sliceMiss issues an LLC miss or writeback to the owning channel.
func (g *GPU) sliceMiss(req *sim.MemReq, now sim.Cycle) bool {
	return g.tellSlice(int(req.Slice), g.enqueue(g.homeChannel(req), req, now))
}

// enqueue offers req to channel ch on behalf of a sender that runs ahead
// of the channels in step: accepted, or the channel's bound on the cycle a
// slot could be free.
func (g *GPU) enqueue(ch int, req *sim.MemReq, now sim.Cycle) sim.Cycle {
	if g.chans[ch].Enqueue(req) {
		return sim.Accepted
	}
	return g.chans[ch].RetryAt(now)
}

// tellSM and tellSlice turn what a receiver returned — accepted, or a
// refusal's bound — into the bool the SM's Send port and the slice's Send*
// ports return, handing the bound to the sender first (DESIGN.md §9
// "Parks").
func (g *GPU) tellSM(sm int, retry sim.Cycle) bool {
	if retry == sim.Accepted {
		return true
	}
	g.sms[sm].ParkSend(retry)
	return false
}

func (g *GPU) tellSlice(slice int, retry sim.Cycle) bool {
	if retry == sim.Accepted {
		return true
	}
	g.slices[slice].ParkOutbox(retry)
	return false
}

// retirePageCopyRead reports whether a finished DRAM read is page-copy
// traffic, which has no consumer, and retires it if so.
func (g *GPU) retirePageCopyRead(req *sim.MemReq) bool {
	if req.SM >= 0 || req.Kind != sim.Load {
		return false
	}
	g.reqs.Put(req)
	return true
}

// memRespond routes a finished DRAM read back to the slice that missed.
func (g *GPU) memRespond(req *sim.MemReq) {
	if g.retirePageCopyRead(req) {
		return
	}
	g.slices[req.Slice].AcceptFill(req, g.cycle)
}

// installMemPorts installs the slice-to-channel miss port and the
// channel-to-slice fill port.
func (g *GPU) installMemPorts(miss func(*sim.MemReq, sim.Cycle) bool, respond func(*sim.MemReq)) {
	for _, sl := range g.slices {
		sl.SendMiss = miss
	}
	for _, ch := range g.chans {
		ch.Respond = respond
	}
}

// buildXbars creates one request and one reply crossbar per module and
// registers them. The reply fabric mirrors the request fabric.
func (g *GPU) buildXbars(reqIn, reqOut int) {
	width, lat, buf := g.cfg.NoCPortBytes(), g.cfg.NoCLatency, g.cfg.NoCPortBuffer
	for m := 0; m < g.mods; m++ {
		g.reqXbars = append(g.reqXbars, noc.NewCrossbar(reqIn, reqOut, width, lat, buf, buf))
		g.replyXbars = append(g.replyXbars, noc.NewCrossbar(reqOut, reqIn, width, lat, buf, buf))
	}
	for m, x := range g.reqXbars {
		g.register(x, "req crossbar", m)
	}
	for m, x := range g.replyXbars {
		g.register(x, "reply crossbar", m)
	}
}

// buildInterModule creates the MCM all-to-all inter-module links; each
// module's InterModuleGBs is split across its (mods-1) peers and the
// two directions. A monolithic GPU has none.
func (g *GPU) buildInterModule() {
	mods := g.mods
	if mods == 1 {
		return
	}
	g.acceptInter = (*GPU).acceptInterModule
	per := g.cfg.InterModuleGBs / (2 * float64(mods-1) * g.cfg.CoreClockGHz)
	w := max(int(per+0.5), 1)
	g.inter = sim.NewLinks[noc.Msg]("inter-module link", mods*mods)
	for a := 0; a < mods; a++ {
		for b := 0; b < mods; b++ {
			if a != b {
				g.inter.L[g.interLink(a, b)] = sim.NewLink[noc.Msg](g.cfg.NoCLatency*2, w, 8*g.cfg.NoCPortBuffer)
			}
		}
	}
	g.register(&g.inter, "inter-module links", -1)
}

// interLink returns the index in g.inter of the link from crossbar domain
// src to domain dst.
func (g *GPU) interLink(src, dst int) int { return src*g.mods + dst }

// sendInter puts msg on that link: accepted, or the link's bound on the
// cycle it could take msg. lag is where the sender stands against the
// link's drain (aheadOfFabric, behindFabric).
func (g *GPU) sendInter(src, dst int, msg noc.Msg, now, lag sim.Cycle) sim.Cycle {
	k := g.interLink(src, dst)
	if g.inter.Send(k, now, msg, msg.Bytes) {
		return sim.Accepted
	}
	return g.inter.RetryAt(k, now, lag)
}

// cross sends req (or its reply) from endpoint src toward endpoint dst,
// SMs or slices by their global index, of which every domain holds
// srcPerMod and dstPerMod. It is the one place that knows what a domain
// boundary means: within a domain the message enters the domain's request
// or reply crossbar, ports local to the domain; across it the inter-domain
// link, addressed to the destination itself. lag is where the sender
// stands (aheadOfFabric, behindFabric), for the bound a refusal returns.
func (g *GPU) cross(src, srcPerMod, dst, dstPerMod int, req *sim.MemReq, reply bool, now, lag sim.Cycle) sim.Cycle {
	msg := noc.Msg{Req: req, Dst: dst, Bytes: sim.MessageBytes(req, reply), Reply: reply}
	srcMod, dstMod := src/srcPerMod, dst/dstPerMod
	if srcMod != dstMod {
		return g.sendInter(srcMod, dstMod, msg, now, lag)
	}
	msg.Dst = dst % dstPerMod
	x, port := g.reqXbars[srcMod], src%srcPerMod
	if reply {
		x = g.replyXbars[srcMod]
	}
	if x.Inject(port, now, msg) {
		return sim.Accepted
	}
	return x.RetryInject(port, now, lag)
}

// acceptInterModule consumes what leaves an MCM inter-module link: a
// request for its home slice, or a reply for the architecture's consumer.
func (g *GPU) acceptInterModule(_ int, msg noc.Msg, now sim.Cycle) sim.Cycle {
	if msg.Reply {
		return g.acceptReply(g, msg.Dst, msg.Req, now)
	}
	g.slices[msg.Dst].EnqueueRemote(msg.Req)
	return sim.Accepted
}

// deliverToSM hands a reply to its SM: what leaves a NUBA slice-reply
// link, and what leaves a UBA reply crossbar — at the port of req.SM, where
// cross addressed it.
func (g *GPU) deliverToSM(_ int, req *sim.MemReq, now sim.Cycle) sim.Cycle {
	g.accountService(req)
	g.sms[req.SM].AcceptReply(req, now)
	return sim.Accepted
}

// moveFabric is the fabric phase of step, the same on every architecture:
// one cycle's messages move between SMs and slices over whatever wires
// the builder installed. A carrier the architecture lacks is an empty
// set or queue, so the order below is each architecture's own.
func (g *GPU) moveFabric(now sim.Cycle) {
	if !g.invalQueue.Empty() {
		g.drainInvalQueue(now)
	}
	sim.Drain(&g.smReq, g, now, (*GPU).acceptSMRequest)
	g.moveXbars(now)
	sim.Drain(&g.inter, g, now, g.acceptInter)
	sim.Drain(&g.sliceReply, g, now, (*GPU).deliverToSM)
	if len(g.fillRetry) > 0 {
		g.retryFills()
	}
}

// moveXbars runs both fabrics' arbitration and drains their egress ports.
// Requests egress into slices on every architecture; replies go to
// g.acceptReply, the architecture's consumer at reply-fabric output dst (an
// SM for the UBA layouts, a slice for NUBA).
func (g *GPU) moveXbars(now sim.Cycle) {
	flt := g.flt
	for m, rq := range g.reqXbars {
		rp := g.replyXbars[m]
		if flt == nil || !flt.frozen(StallNoC, m, now) {
			rq.Tick(now)
		}
		rp.Tick(now)
		// Port indices are local to the module.
		sim.Drain(&rq.Out, egress{g, m * rq.OutPorts()}, now, egress.toSlice)
		sim.Drain(&rp.Out, egress{g, m * rp.OutPorts()}, now, egress.reply)
	}
}

// egress is the context of a module's egress drains: the GPU and the global
// index of the module's output port 0 (a value: sim.Drain's ctx).
type egress struct {
	g    *GPU
	base int
}

// toSlice takes a request off the request crossbar into its home slice.
func (e egress) toSlice(p int, msg noc.Msg, _ sim.Cycle) sim.Cycle {
	e.g.slices[e.base+p].EnqueueRemote(msg.Req)
	return sim.Accepted // the RMR queue is elastic
}

// reply hands a reply leaving the reply crossbar to the architecture's
// consumer, whose refusal is a bound like any other sink's.
func (e egress) reply(p int, msg noc.Msg, now sim.Cycle) sim.Cycle {
	return e.g.acceptReply(e.g, e.base+p, msg.Req, now)
}

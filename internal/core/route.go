package core

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Routing shared by every architecture: the helpers the builders
// (arch_nuba.go, arch_uba.go) assemble their fabrics from, the ports no
// architecture changes, and the crossbar and inter-module movement that
// differs only in who consumes an egressing reply.

// smPort returns an SM's port index within its module's fabrics
// (request-fabric input, reply-fabric output for the UBA layouts).
func (g *GPU) smPort(sm int) int { return sm % g.smsPerMod }

// slicePort returns a slice's port index within its module's fabrics.
func (g *GPU) slicePort(slice int) int { return slice % g.slicesPerMod }

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
		g.stats.PageReplicas++
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
	fromCh, toCh := g.mapper.Channel(from), g.mapper.Channel(to)
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
		req.Channel = g.mapper.Channel(req.Addr)
	}
	return req.Channel
}

// sliceMiss issues an LLC miss or writeback to the owning channel.
func (g *GPU) sliceMiss(req *sim.MemReq, now sim.Cycle) bool {
	return g.chans[g.homeChannel(req)].Enqueue(req)
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
		g.register(xbarPart{x}, "req crossbar", m, -1)
	}
	for m, x := range g.replyXbars {
		g.register(xbarPart{x}, "reply crossbar", m, -1)
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
	per := g.cfg.InterModuleGBs / (2 * float64(mods-1) * g.cfg.CoreClockGHz)
	w := max(int(per+0.5), 1)
	g.interModule = make([][]*sim.Link[noc.Msg], mods)
	for a := 0; a < mods; a++ {
		g.interModule[a] = make([]*sim.Link[noc.Msg], mods)
		for b := 0; b < mods; b++ {
			if a == b {
				continue
			}
			l := sim.NewLink[noc.Msg](g.cfg.NoCLatency*2, w, 8*g.cfg.NoCPortBuffer)
			g.interModule[a][b] = l
			g.register(linkPart[noc.Msg]{l}, "inter-module link", a, b)
		}
	}
}

// enqueueRemote offers a request arriving over the NoC to a slice's
// remote queue.
func (g *GPU) enqueueRemote(slice int, req *sim.MemReq) bool {
	return g.slices[slice].EnqueueRemote(req)
}

// moveXbars runs both fabrics' arbitration and drains their egress
// ports. Requests egress into slices on every architecture; replies go
// to acceptReply, the architecture's consumer at reply-fabric output
// dst (an SM for the UBA layouts, a slice for NUBA), which reports
// back-pressure by returning false.
func (g *GPU) moveXbars(now sim.Cycle, acceptReply func(dst int, req *sim.MemReq, now sim.Cycle) bool) {
	flt := g.flt
	for m, rq := range g.reqXbars {
		rp := g.replyXbars[m]
		if flt == nil || !flt.frozen(StallNoC, m, now) {
			rq.Tick(now)
		}
		rp.Tick(now)
		// Port indices are local to the module.
		slice0, dst0 := m*rq.OutPorts(), m*rp.OutPorts()
		rq.Drain(now, func(p int, msg noc.Msg) bool { return g.enqueueRemote(slice0+p, msg.Req) })
		rp.Drain(now, func(p int, msg noc.Msg) bool { return acceptReply(dst0+p, msg.Req, now) })
	}
}

// moveInterModule drains the MCM inter-module links: requests into
// their home slice, replies to the architecture's consumer.
func (g *GPU) moveInterModule(now sim.Cycle, acceptReply func(dst int, req *sim.MemReq, now sim.Cycle) bool) {
	for a := range g.interModule {
		for _, link := range g.interModule[a] {
			if link == nil {
				continue
			}
			for {
				msg, ok := link.Peek(now)
				if !ok {
					break
				}
				if msg.Reply {
					ok = acceptReply(msg.Dst, msg.Req, now)
				} else {
					ok = g.enqueueRemote(msg.Dst, msg.Req)
				}
				if !ok {
					break
				}
				link.Pop(now)
			}
		}
	}
}

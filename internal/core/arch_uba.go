package core

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// The two UBA baselines: every L1 miss crosses a crossbar. The request
// fabric runs SMs -> slices and the reply fabric slices -> SMs.

// buildUBA is what both UBA builders share: SM-to-slice crossbars, the
// reply path and the no-forward guard (only NUBA replica slices forward).
func (g *GPU) buildUBA() {
	g.buildXbars(g.smsPerMod, g.slicesPerMod)
	for _, sl := range g.slices {
		sl.SendReply = g.ubaSliceReply(sl.ID)
		sl.SendForward = func(*sim.MemReq, sim.Cycle) bool { panic("core: forward on UBA") }
	}
}

// ubaSliceReply returns replies over the crossbar toward the SM.
func (g *GPU) ubaSliceReply(sliceID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		return g.tellSlice(sliceID, g.cross(sliceID, g.slicesPerMod, int(req.SM), g.smsPerMod, req, true, now, behindFabric))
	}
}

// --- Memory-side UBA -------------------------------------------------

// buildUBAMem creates the memory-side UBA: each address has one home
// slice in front of its channel, reached over the module crossbar or,
// for MCM, an inter-module link.
func (g *GPU) buildUBAMem() {
	g.setMods(max(g.cfg.NumModules, 1))
	g.buildUBA()
	g.buildInterModule()
	for _, s := range g.sms {
		s.Send = g.ubaMemSend(s.ID)
	}
	g.installMemPorts(g.sliceMiss, g.memRespond)
	g.acceptReply = (*GPU).deliverToSM
}

// ubaMemSend routes an L1 miss over the module crossbar (or inter-module
// link) to the home slice.
func (g *GPU) ubaMemSend(smID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		ch, sl := g.mapper.Home(req.Addr)
		req.Channel, req.Slice = int16(ch), int16(sl)
		req.Remote = true // every UBA L1 miss traverses the NoC
		if retry := g.cross(smID, g.smsPerMod, int(req.Slice), g.slicesPerMod, req, false, now, aheadOfFabric); retry != sim.Accepted {
			return g.tellSM(smID, retry)
		}
		g.recordPlacementAccess(req, g.sms[smID].Part)
		return true
	}
}

// --- SM-side UBA ------------------------------------------------------

// buildUBASMSide creates the A100-style SM-side UBA: two halves, each
// with its own crossbars, whose slices may cache any address. What the
// halves exchange — LLC misses to the other half's channels, the
// returning fills and coherence invalidations — rides the two inter-half
// links, g.inter with the halves as its domains.
func (g *GPU) buildUBASMSide() {
	g.setMods(2)
	g.buildUBA()
	// The halves are stitched with abundant bandwidth; half the per-half
	// crossbar bandwidth each direction keeps the link from becoming an
	// artificial bottleneck relative to the paper's SM-side UBA (which
	// performs within ~1% of the memory-side baseline).
	w := g.cfg.NoCPortBytes() * max(g.slicesPerMod, 1)
	g.inter = sim.NewLinks[noc.Msg]("inter-half link", g.mods*g.mods)
	for h := 0; h < 2; h++ {
		g.inter.L[g.interLink(h, 1-h)] = sim.NewLink[noc.Msg](g.cfg.NoCLatency, w, 8*g.cfg.NoCPortBuffer)
	}
	g.register(&g.inter, "inter-half links", -1)
	for _, s := range g.sms {
		s.Send = g.smSideSend(s.ID)
	}
	g.installMemPorts(g.smSideMiss, g.smSideRespond)
	g.acceptReply, g.acceptInter = (*GPU).deliverToSM, (*GPU).acceptInterHalf
}

// smSideSlice picks the caching slice for an SM-side UBA access: a slice
// in the SM's half, selected by address hash (every slice may cache every
// address).
func (g *GPU) smSideSlice(sm int, addr uint64) int {
	half := g.moduleOfSM(sm)
	sph := g.cfg.NumLLCSlices / 2
	return half*sph + int(sim.Mix(addr/addrmap.RowBytes)%uint64(sph))
}

// mirrorSlice returns the other half's slice caching the same addresses.
func (g *GPU) mirrorSlice(slice int) int {
	sph := g.cfg.NumLLCSlices / 2
	return (1-slice/sph)*sph + slice%sph
}

// smSideSend routes an L1 miss to a slice in the SM's half and, for
// stores, emits the cross-half coherence invalidation.
func (g *GPU) smSideSend(smID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		req.Slice = int16(g.smSideSlice(smID, req.Addr))
		req.Channel = int16(g.mapper.Channel(req.Addr))
		req.Remote = true
		if retry := g.cross(smID, g.smsPerMod, int(req.Slice), g.slicesPerMod, req, false, now, aheadOfFabric); retry != sim.Accepted {
			return g.tellSM(smID, retry) // the slice is in the SM's half: always the half's crossbar
		}
		if req.IsWrite() {
			g.invalQueue.Push(g.reqs.Get(sim.MemReq{
				Kind: sim.Store, Addr: req.Addr, Size: 0, SM: -1, DstReg: -1,
				Slice: int16(g.mirrorSlice(int(req.Slice))), Channel: -1, ReplicaSlice: -1, Inval: true,
			}))
		}
		g.recordPlacementAccess(req, g.sms[smID].Part)
		return true
	}
}

// drainInvalQueue pushes pending coherence invalidations over the
// inter-half links.
func (g *GPU) drainInvalQueue(now sim.Cycle) {
	for {
		inv, ok := g.invalQueue.Peek()
		if !ok {
			return
		}
		half := g.moduleOfSlice(int(inv.Slice))
		if g.sendInter(1-half, half, noc.Msg{Req: inv, Dst: int(inv.Slice), Bytes: sim.ReqBytes, Inval: true}, now, aheadOfFabric) != sim.Accepted {
			return
		}
		g.stats.CoherenceTraffic += sim.ReqBytes
		g.invalQueue.Pop()
	}
}

// smSideMiss issues an LLC miss or writeback to the owning channel,
// over the inter-half link when the channel sits in the other half.
func (g *GPU) smSideMiss(req *sim.MemReq, now sim.Cycle) bool {
	ch := g.homeChannel(req)
	srcHalf := g.moduleOfSlice(int(req.Slice))
	if g.moduleOfChannel(ch) == srcHalf {
		return g.tellSlice(int(req.Slice), g.enqueue(ch, req, now))
	}
	return g.tellSlice(int(req.Slice), g.sendInter(srcHalf, 1-srcHalf, noc.Msg{Req: req, Dst: ch, Bytes: sim.MessageBytes(req, false)}, now, behindFabric))
}

// smSideRespond routes a finished DRAM read back to the slice that
// missed, over the inter-half link when it sits in the other half. A
// saturated link delays the fill one cycle through fillRetry.
func (g *GPU) smSideRespond(req *sim.MemReq) {
	if g.retirePageCopyRead(req) {
		return
	}
	now := g.cycle
	chHalf := g.moduleOfChannel(int(req.Channel))
	if chHalf == g.moduleOfSlice(int(req.Slice)) {
		g.slices[req.Slice].AcceptFill(req, now)
		return
	}
	if g.sendInter(chHalf, 1-chHalf, noc.Msg{Req: req, Dst: int(req.Slice), Bytes: sim.MessageBytes(req, true), Reply: true}, now, behindFabric) != sim.Accepted {
		g.fillRetry = append(g.fillRetry, req)
	}
}

// retryFills re-attempts fills that found the inter-half link saturated.
func (g *GPU) retryFills() {
	pending := g.fillRetry
	g.fillRetry = g.fillRetry[:0]
	for _, req := range pending {
		g.smSideRespond(req)
	}
}

// acceptInterHalf consumes what leaves an inter-half link: an invalidation
// or a fill for a slice, or a miss for a channel.
func (g *GPU) acceptInterHalf(_ int, msg noc.Msg, now sim.Cycle) sim.Cycle {
	switch {
	case msg.Inval:
		g.slices[msg.Dst].EnqueueRemote(msg.Req)
	case msg.Reply:
		g.slices[msg.Dst].AcceptFill(msg.Req, now)
	default:
		return g.enqueue(msg.Dst, msg.Req, now)
	}
	return sim.Accepted
}

package core

import (
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/mdr"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// NUBA: every SM reaches its partition's slices over point-to-point
// links, and the crossbars run slice -> slice, carrying only
// inter-partition traffic (port indices local to the module).

// buildNUBA creates the NUBA fabric — slice-to-slice crossbars, one
// request link per SM, one reply link per slice, inter-module links for
// MCM — registers it, installs the routing ports and, under MDR, the
// profiler and controller.
func (g *GPU) buildNUBA() {
	g.setMods(max(g.cfg.NumModules, 1))
	g.buildXbars(g.slicesPerMod, g.slicesPerMod)
	g.smReqOcc, g.sliceReplyOcc = sim.NewBits(len(g.sms)), sim.NewBits(len(g.slices))
	for i := range g.sms {
		l := sim.NewLink[*sim.MemReq](g.cfg.LocalLinkLatency, g.cfg.LocalLinkBytes, g.cfg.LocalLinkBuffer)
		g.smReqLinks = append(g.smReqLinks, l)
		g.registerLink(l, "SM-request link", i, g.smReqOcc)
	}
	for j := range g.slices {
		l := sim.NewLink[*sim.MemReq](g.cfg.LocalLinkLatency, g.cfg.LocalLinkBytes, g.cfg.LocalLinkBuffer)
		g.sliceReplyLinks = append(g.sliceReplyLinks, l)
		g.registerLink(l, "slice-reply link", j, g.sliceReplyOcc)
	}
	g.buildInterModule()

	if g.cfg.Replication == config.MDR {
		g.mdrProf = mdr.NewProfiler(&g.cfg, 0)
		g.mdrCtl = mdr.NewController(&g.cfg, g.stats, g.mdrProf)
	}

	for _, s := range g.sms {
		s.Send = g.nubaSend(s.ID, s.Part)
	}
	for _, sl := range g.slices {
		sl.SendReply = g.nubaSliceReply(sl.ID, sl.Part)
		sl.SendForward = g.nubaForward(sl.ID)
	}
	g.installMemPorts(g.sliceMiss, g.memRespond)
	g.moveFabric = g.moveNUBA
}

// moveNUBA is NUBA's fabric phase of step.
func (g *GPU) moveNUBA(now sim.Cycle) {
	g.moveNUBARequestLinks(now)
	g.moveXbars(now, g.nubaAcceptReply)
	g.moveInterModule(now, g.nubaAcceptReply)
	g.moveNUBAReplyLinks(now)
}

// replicating reports whether read-only shared lines are currently
// replicated.
func (g *GPU) replicating() bool {
	switch g.cfg.Replication {
	case config.FullRep:
		return true
	case config.MDR:
		return g.mdrCtl.Replicating()
	default:
		return false
	}
}

// nubaSend injects an L1 miss into the SM's point-to-point request link;
// classification, replica routing and MDR profiling happen here.
func (g *GPU) nubaSend(smID, part int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		link := g.smReqLinks[smID]
		if !link.CanSend(now) {
			return false
		}
		req.Channel, req.Slice = g.mapper.Home(req.Addr)
		local := g.slices[req.Slice].Part == part
		if !local && req.ReadOnly && req.Kind == sim.Load && g.replicating() {
			req.ReplicaSlice = g.partitionSlice(part, req.Addr)
		}
		if g.mdrProf != nil {
			g.mdrProf.Observe(req, req.Slice, local, g.partitionSlice(part, req.Addr), now)
		}
		g.recordPlacementAccess(req, part)
		bytes := sim.MessageBytes(req, false)
		link.Send(now, req, bytes)
		g.smReqOcc.Set(smID)
		return true
	}
}

// moveNUBARequestLinks delivers arrived requests from SM links into local
// slices or onto the NoC.
func (g *GPU) moveNUBARequestLinks(now sim.Cycle) {
	occ := g.smReqOcc
	for smID := occ.Next(0); smID >= 0; smID = occ.Next(smID + 1) {
		link, part := g.smReqLinks[smID], g.sms[smID].Part
		for {
			req, ok := link.Peek(now)
			if !ok {
				break
			}
			var accepted bool
			switch {
			case req.ReplicaSlice >= 0:
				accepted = g.slices[req.ReplicaSlice].EnqueueLocal(req)
			case g.slices[req.Slice].Part == part:
				accepted = g.slices[req.Slice].EnqueueLocal(req)
			default:
				accepted = g.nubaInjectNoC(g.partitionSlice(part, req.Addr), req.Slice, req, false, now)
			}
			if !accepted {
				break
			}
			link.Pop(now)
		}
		if link.Pending() == 0 {
			occ.Clear(smID)
		}
	}
}

// nubaInjectNoC injects a request or reply into the slice-to-slice NoC
// from srcSlice toward dstSlice, crossing module links when needed.
func (g *GPU) nubaInjectNoC(srcSlice, dstSlice int, req *sim.MemReq, reply bool, now sim.Cycle) bool {
	req.Remote = true
	bytes := sim.MessageBytes(req, reply)
	ms, md := g.moduleOfSlice(srcSlice), g.moduleOfSlice(dstSlice)
	if ms == md {
		fabric := g.reqXbars[ms]
		if reply {
			fabric = g.replyXbars[ms]
		}
		return fabric.Inject(g.slicePort(srcSlice), now,
			noc.Msg{Req: req, Dst: g.slicePort(dstSlice), Bytes: bytes, Reply: reply})
	}
	link := g.interModule[ms][md]
	if !link.CanSend(now) {
		return false
	}
	link.Send(now, noc.Msg{Req: req, Dst: dstSlice, Bytes: bytes, Reply: reply}, bytes)
	return true
}

// nubaSendLocalReply puts a reply on a slice's link toward its
// partition's SMs.
func (g *GPU) nubaSendLocalReply(sliceID int, req *sim.MemReq, now sim.Cycle) bool {
	link := g.sliceReplyLinks[sliceID]
	if !link.CanSend(now) {
		return false
	}
	link.Send(now, req, sim.MessageBytes(req, true))
	g.sliceReplyOcc.Set(sliceID)
	return true
}

// nubaSliceReply routes a finished request from a slice: locally over the
// partition reply link, or across the NoC toward the requester's
// partition (or the replica slice awaiting a fill).
func (g *GPU) nubaSliceReply(sliceID, part int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		// Home slice answering a forwarded replica miss: return the line
		// to the replica slice.
		if req.ReplicaSlice >= 0 && req.ReplicaSlice != sliceID {
			return g.nubaInjectNoC(sliceID, req.ReplicaSlice, req, true, now)
		}
		rp := g.sms[req.SM].Part
		if rp == part {
			return g.nubaSendLocalReply(sliceID, req, now)
		}
		return g.nubaInjectNoC(sliceID, g.partitionSlice(rp, req.Addr), req, true, now)
	}
}

// nubaForward sends a replica-slice miss to the line's home slice.
func (g *GPU) nubaForward(sliceID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		return g.nubaInjectNoC(sliceID, req.Slice, req, false, now)
	}
}

// nubaAcceptReply consumes a reply leaving the NoC at a slice: the fill
// of a replica miss, or a pass-through toward a local SM.
func (g *GPU) nubaAcceptReply(sliceID int, req *sim.MemReq, now sim.Cycle) bool {
	if req.ReplicaSlice == sliceID && req.Slice != sliceID {
		g.slices[sliceID].AcceptReplicaFill(req, now)
		return true
	}
	return g.nubaSendLocalReply(sliceID, req, now)
}

// moveNUBAReplyLinks delivers replies from slice links to their SMs.
func (g *GPU) moveNUBAReplyLinks(now sim.Cycle) {
	occ := g.sliceReplyOcc
	for j := occ.Next(0); j >= 0; j = occ.Next(j + 1) {
		link := g.sliceReplyLinks[j]
		for {
			req, ok := link.Pop(now)
			if !ok {
				break
			}
			g.accountService(req)
			g.sms[req.SM].AcceptReply(req, now)
		}
		if link.Pending() == 0 {
			occ.Clear(j)
		}
	}
}

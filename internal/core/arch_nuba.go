package core

import (
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/mdr"
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
	local := func() *sim.Link[*sim.MemReq] {
		return sim.NewLink[*sim.MemReq](g.cfg.LocalLinkLatency, g.cfg.LocalLinkBytes, g.cfg.LocalLinkBuffer)
	}
	g.smReq = sim.NewLinks[*sim.MemReq]("SM-request link", len(g.sms))
	g.sliceReply = sim.NewLinks[*sim.MemReq]("slice-reply link", len(g.slices))
	for i := range g.smReq.L {
		g.smReq.L[i] = local()
	}
	for j := range g.sliceReply.L {
		g.sliceReply.L[j] = local()
	}
	g.register(&g.smReq, "SM-request links", -1)
	g.register(&g.sliceReply, "slice-reply links", -1)
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
	g.acceptReply = (*GPU).nubaAcceptReply
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
		if !g.smReq.L[smID].CanSend(now) {
			// The link's drain runs after the SMs: a full link shows room the
			// cycle after its own head moves.
			return g.tellSM(smID, g.smReq.RetryAt(smID, now, aheadOfFabric))
		}
		ch, sl := g.mapper.Home(req.Addr)
		req.Channel, req.Slice = int16(ch), int16(sl)
		local := g.slices[req.Slice].Part == part
		if !local && req.ReadOnly && req.Kind == sim.Load && g.replicating() {
			req.ReplicaSlice = int16(g.partitionSlice(part, req.Addr))
		}
		if g.mdrProf != nil {
			g.mdrProf.Observe(req, int(req.Slice), local, g.partitionSlice(part, req.Addr), now)
		}
		g.recordPlacementAccess(req, part)
		return g.smReq.Send(smID, now, req, sim.MessageBytes(req, false))
	}
}

// acceptSMRequest consumes a request leaving an SM's link: into a slice of
// the SM's partition (the home, or the replica slice), or onto the NoC.
func (g *GPU) acceptSMRequest(smID int, req *sim.MemReq, now sim.Cycle) sim.Cycle {
	part := g.sms[smID].Part
	switch {
	case req.ReplicaSlice >= 0:
		g.slices[req.ReplicaSlice].EnqueueLocal(req)
	case g.slices[req.Slice].Part == part:
		g.slices[req.Slice].EnqueueLocal(req)
	default:
		return g.nubaInjectNoC(g.partitionSlice(part, req.Addr), int(req.Slice), req, false, now, aheadOfFabric)
	}
	return sim.Accepted // the LMR queue is elastic
}

// nubaInjectNoC injects a request or reply into the slice-to-slice NoC
// from srcSlice toward dstSlice.
func (g *GPU) nubaInjectNoC(srcSlice, dstSlice int, req *sim.MemReq, reply bool, now, lag sim.Cycle) sim.Cycle {
	req.Remote = true
	return g.cross(srcSlice, g.slicesPerMod, dstSlice, g.slicesPerMod, req, reply, now, lag)
}

// nubaSendLocalReply puts a reply on a slice's link toward its
// partition's SMs. The link's drain always delivers, after the crossbars
// and before the slices: a full link shows room lag cycles after its
// head's arrival.
func (g *GPU) nubaSendLocalReply(sliceID int, req *sim.MemReq, now, lag sim.Cycle) sim.Cycle {
	if g.sliceReply.Send(sliceID, now, req, sim.MessageBytes(req, true)) {
		return sim.Accepted
	}
	return g.sliceReply.RetryAt(sliceID, now, lag)
}

// nubaSliceReply routes a finished request from a slice: locally over the
// partition reply link, or across the NoC toward the requester's
// partition (or the replica slice awaiting a fill).
func (g *GPU) nubaSliceReply(sliceID, part int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		// Home slice answering a forwarded replica miss: return the line
		// to the replica slice.
		if req.ReplicaSlice >= 0 && int(req.ReplicaSlice) != sliceID {
			return g.tellSlice(sliceID, g.nubaInjectNoC(sliceID, int(req.ReplicaSlice), req, true, now, behindFabric))
		}
		rp := g.sms[req.SM].Part
		if rp == part {
			return g.tellSlice(sliceID, g.nubaSendLocalReply(sliceID, req, now, behindFabric))
		}
		return g.tellSlice(sliceID, g.nubaInjectNoC(sliceID, g.partitionSlice(rp, req.Addr), req, true, now, behindFabric))
	}
}

// nubaForward sends a replica-slice miss to the line's home slice.
func (g *GPU) nubaForward(sliceID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		return g.tellSlice(sliceID, g.nubaInjectNoC(sliceID, int(req.Slice), req, false, now, behindFabric))
	}
}

// nubaAcceptReply consumes a reply leaving the NoC at a slice: the fill
// of a replica miss, or a pass-through toward a local SM.
func (g *GPU) nubaAcceptReply(sliceID int, req *sim.MemReq, now sim.Cycle) sim.Cycle {
	if int(req.ReplicaSlice) == sliceID && int(req.Slice) != sliceID {
		g.slices[sliceID].AcceptReplicaFill(req, now)
		return sim.Accepted
	}
	return g.nubaSendLocalReply(sliceID, req, now, aheadOfFabric)
}

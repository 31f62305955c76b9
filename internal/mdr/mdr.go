// Package mdr implements Model-Driven Replication (Section 5): the
// hardware mechanism that decides, once per fixed-length epoch, whether
// read-only shared cache lines should be replicated into requesters'
// local LLC slices.
//
// Profiling uses dynamic set sampling: shadow tag arrays covering 8 sets
// of one designated LLC slice simulate the *opposite* replication mode,
// giving the LLC hit rate "as if" the other policy were active; request
// classification counters give the local/remote fractions under both
// modes. At each epoch boundary the controller evaluates the paper's two
// closed-form effective-bandwidth models and adopts the configuration with
// the higher estimate, with the 116-cycle fixed-point evaluation delay
// before the decision takes effect.
package mdr

import (
	"github.com/nuba-gpu/nuba/internal/cache"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Profiler collects one epoch of profiling input for the model.
type Profiler struct {
	targetSlice int
	llcSets     int
	sampleEvery int // a set is sampled if set % sampleEvery == 0
	sampled     int // the number of sampled sets

	// The shadow tag arrays, one set per sampled set. The paper's
	// hardware budget is 8 sets x 16 ways x 24-bit tags = 384 bytes.
	shadowNoRep   *cache.Cache
	shadowFullRep *cache.Cache

	// Request-classification counters (all L1-miss loads; stores and
	// atomics are never replicated and excluded from the fractions, as
	// the model reasons about read bandwidth).
	localHome   int64
	remoteRO    int64
	remoteOther int64
}

// NewProfiler returns a profiler sampling MDRSampleSets sets of the given
// slice.
func NewProfiler(cfg *config.Config, targetSlice int) *Profiler {
	sets := cfg.LLCSets()
	every := sets / cfg.MDRSampleSets
	if every < 1 {
		every = 1
	}
	n := (sets + every - 1) / every
	return &Profiler{
		targetSlice:   targetSlice,
		llcSets:       sets,
		sampleEvery:   every,
		sampled:       n,
		shadowNoRep:   cache.New(n, cfg.LLCWays, cache.WriteThrough),
		shadowFullRep: cache.New(n, cfg.LLCWays, cache.WriteThrough),
	}
}

// sampleIndex returns the shadow set index for addr, or -1 if the
// address's set is not sampled.
func (p *Profiler) sampleIndex(addr uint64) int {
	set := int(addr / sim.LineSize % uint64(p.llcSets))
	if set%p.sampleEvery != 0 {
		return -1
	}
	return set / p.sampleEvery
}

// shadow simulates a lookup and fill of addr, whose LLC set is sampled set
// si, in a shadow tag array. The array holds line l of sampled set si as
// line l*sampled+si, which lies in its set si.
func (p *Profiler) shadow(tags *cache.Cache, si int, addr uint64, now sim.Cycle) {
	key := tags.LineAddr(addr)*uint64(p.sampled) + uint64(si)*sim.LineSize
	if !tags.Access(key, false, int64(now)) {
		tags.Insert(key, false, false, int64(now))
	}
}

// hitRate returns a shadow tag array's hit rate over the epoch, and false
// on too few samples to trust.
func hitRate(tags *cache.Cache) (float64, bool) {
	if tags.Accesses < 32 {
		return 0, false
	}
	return float64(tags.Hits) / float64(tags.Accesses), true
}

// Observe classifies one L1-miss request. home is its home slice, local
// reports whether the home lies in the requester's partition, and
// replicaWouldBe is the local slice that would hold its replica under
// full replication.
func (p *Profiler) Observe(req *sim.MemReq, home int, local bool, replicaWouldBe int, now sim.Cycle) {
	if req.Kind == sim.Load {
		switch {
		case local:
			p.localHome++
		case req.ReadOnly:
			p.remoteRO++
		default:
			p.remoteOther++
		}
	}
	// No-replication shadow: the slice sees exactly its home requests.
	if home == p.targetSlice {
		if si := p.sampleIndex(req.Addr); si >= 0 {
			p.shadow(p.shadowNoRep, si, req.Addr, now)
			// Under full replication the slice also keeps serving local
			// requests and remote non-read-only ones.
			if local || !req.ReadOnly || req.Kind != sim.Load {
				p.shadow(p.shadowFullRep, si, req.Addr, now)
			}
		}
		return
	}
	// Full-replication shadow additionally sees read-only remote-home
	// loads from this slice's partition, installed as replicas.
	if !local && req.ReadOnly && req.Kind == sim.Load && replicaWouldBe == p.targetSlice {
		if si := p.sampleIndex(req.Addr); si >= 0 {
			p.shadow(p.shadowFullRep, si, req.Addr, now)
		}
	}
}

// Snapshot captures the epoch's model inputs and resets the counters.
type Snapshot struct {
	HitNoRep          float64
	HitFullRep        float64
	HaveSamples       bool
	FracLocalNoRep    float64
	FracRemoteNoRep   float64
	FracLocalFullRep  float64
	FracRemoteFullRep float64
	Loads             int64
}

// EndEpoch returns the epoch snapshot and resets per-epoch counters.
func (p *Profiler) EndEpoch() Snapshot {
	total := p.localHome + p.remoteRO + p.remoteOther
	s := Snapshot{Loads: total}
	hitNR, okNR := hitRate(p.shadowNoRep)
	hitFR, okFR := hitRate(p.shadowFullRep)
	s.HitNoRep, s.HitFullRep = hitNR, hitFR
	s.HaveSamples = okNR && okFR && total > 0
	if total > 0 {
		ft := float64(total)
		s.FracLocalNoRep = float64(p.localHome) / ft
		s.FracRemoteNoRep = float64(p.remoteRO+p.remoteOther) / ft
		s.FracLocalFullRep = float64(p.localHome+p.remoteRO) / ft
		s.FracRemoteFullRep = float64(p.remoteOther) / ft
	}
	p.localHome, p.remoteRO, p.remoteOther = 0, 0, 0
	// The shadow tags persist across epochs like real cache contents.
	p.shadowNoRep.Accesses, p.shadowNoRep.Hits = 0, 0
	p.shadowFullRep.Accesses, p.shadowFullRep.Hits = 0, 0
	return s
}

// Bandwidths are the microarchitectural raw bandwidth constants of the
// model, in bytes per core cycle.
type Bandwidths struct {
	LLC float64 // aggregate LLC tag/data bandwidth
	Mem float64 // aggregate DRAM bandwidth
	NoC float64 // aggregate inter-partition NoC bandwidth
}

// RawBandwidths derives the model constants from the configuration.
func RawBandwidths(cfg *config.Config) Bandwidths {
	return Bandwidths{
		LLC: float64(cfg.NumLLCSlices) * sim.LineSize,
		Mem: float64(cfg.NumChannels) * float64(cfg.MemBusBytesPerMemCycle) / float64(cfg.MemClockDiv),
		NoC: float64(cfg.NumLLCSlices) * float64(cfg.NoCPortBytes()),
	}
}

// ModelNoRep evaluates the paper's no-replication effective bandwidth:
//
//	BW_NoRep     = Frac_local*BW_local + Frac_remote*BW_remote
//	BW_local     = LLC_hit*BW_LLC + BW_LLC_miss
//	BW_LLC_miss  = min(LLC_miss*BW_LLC, BW_MEM)
//	BW_remote    = min(BW_NoC, LLC_hit*BW_LLC + BW_LLC_miss)
func ModelNoRep(bw Bandwidths, hit, fracLocal, fracRemote float64) float64 {
	miss := 1 - hit
	llcMissBW := minf(miss*bw.LLC, bw.Mem)
	local := hit*bw.LLC + llcMissBW
	remote := minf(bw.NoC, hit*bw.LLC+llcMissBW)
	return fracLocal*local + fracRemote*remote
}

// ModelFullRep evaluates the full-replication effective bandwidth:
//
//	BW_FullRep       = LLC_hit*BW_LLC + BW_LLC_miss
//	BW_LLC_miss      = min(LLC_miss*BW_LLC, BW_local/remote)
//	BW_local/remote  = Frac_local*BW_MEM + Frac_remote*BW_remote
//	BW_remote        = min(BW_NoC, BW_MEM)
func ModelFullRep(bw Bandwidths, hit, fracLocal, fracRemote float64) float64 {
	miss := 1 - hit
	remote := minf(bw.NoC, bw.Mem)
	memEff := fracLocal*bw.Mem + fracRemote*remote
	return hit*bw.LLC + minf(miss*bw.LLC, memEff)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Controller owns the epoch loop and the current replication decision.
type Controller struct {
	cfg   *config.Config
	stats *metrics.Stats
	prof  *Profiler
	bw    Bandwidths

	replicate    bool
	nextDecision bool
	applyAt      sim.Cycle
	epochEnd     sim.Cycle

	// Decisions numbers the epoch evaluations (DecisionEvent.Epoch).
	Decisions int64

	// OnDecision, when non-nil, is invoked at every epoch boundary with
	// the evaluation the controller just performed — the tracing layer's
	// probe. The callback must not mutate controller state.
	OnDecision func(DecisionEvent)
}

// DecisionEvent describes one epoch-boundary model evaluation.
type DecisionEvent struct {
	Now         sim.Cycle
	Epoch       int64 // decision ordinal (1-based)
	Replicating bool  // mode that ruled the ending epoch
	Next        bool  // decision for the next epoch
	Held        bool  // too few profile samples: prior decision kept

	// PredNoRep/PredFullRep are the two model outputs in bytes per core
	// cycle and ApplyAt the cycle Next takes effect (after the 116-cycle
	// evaluation delay); all three are meaningful only when !Held.
	PredNoRep   float64
	PredFullRep float64
	ApplyAt     sim.Cycle
}

// NewController returns the MDR controller. The initial decision is to
// replicate: the first epoch has no profile yet and optimistically
// replicating matches the paper's on-demand warm-up behaviour.
func NewController(cfg *config.Config, stats *metrics.Stats, prof *Profiler) *Controller {
	return &Controller{
		cfg:       cfg,
		stats:     stats,
		prof:      prof,
		bw:        RawBandwidths(cfg),
		replicate: true,
		applyAt:   -1,
		epochEnd:  cfg.MDREpoch,
	}
}

// Replicating reports whether read-only shared lines are currently being
// replicated (the routing layer consults this per request).
func (c *Controller) Replicating() bool { return c.replicate }

// NextEvent returns the next cycle at which Tick acts: the pending
// decision's apply cycle when an evaluation is in flight, the epoch
// boundary otherwise. Tick is a pure no-op on every earlier cycle.
func (c *Controller) NextEvent() sim.Cycle {
	if c.applyAt >= 0 && c.applyAt < c.epochEnd {
		return c.applyAt
	}
	return c.epochEnd
}

// StateSig returns a signature of the controller's observable state:
// the replication mode, the pending decision and its apply time, the
// epoch boundary and the decision count.
func (c *Controller) StateSig() uint64 {
	h := sim.MixSigBool(sim.SigSeed, c.replicate)
	h = sim.MixSigBool(h, c.nextDecision)
	h = sim.MixSig(h, uint64(c.applyAt))
	h = sim.MixSig(h, uint64(c.epochEnd))
	h = sim.MixSig(h, uint64(c.Decisions))
	return h
}

// Tick advances the controller: applies a pending decision once the
// 116-cycle evaluation completes, and evaluates the model at epoch
// boundaries.
func (c *Controller) Tick(now sim.Cycle) {
	if c.applyAt >= 0 && now >= c.applyAt {
		c.replicate = c.nextDecision
		c.applyAt = -1
	}
	if now < c.epochEnd {
		return
	}
	c.epochEnd = now + c.cfg.MDREpoch
	snap := c.prof.EndEpoch()
	c.Decisions++
	c.stats.MDRDecisions++
	if c.replicate {
		c.stats.MDREpochsReplicating++
	}
	ev := DecisionEvent{Now: now, Epoch: c.Decisions, Replicating: c.replicate}
	if !snap.HaveSamples {
		// Not enough profile data: keep the current decision.
		ev.Held = true
		ev.Next = c.replicate
		if c.OnDecision != nil {
			c.OnDecision(ev)
		}
		return
	}
	noRep := ModelNoRep(c.bw, snap.HitNoRep, snap.FracLocalNoRep, snap.FracRemoteNoRep)
	fullRep := ModelFullRep(c.bw, snap.HitFullRep, snap.FracLocalFullRep, snap.FracRemoteFullRep)
	c.nextDecision = fullRep > noRep
	c.applyAt = now + c.cfg.MDREvalDelay
	ev.Next, ev.PredNoRep, ev.PredFullRep, ev.ApplyAt = c.nextDecision, noRep, fullRep, c.applyAt
	if c.OnDecision != nil {
		c.OnDecision(ev)
	}
}

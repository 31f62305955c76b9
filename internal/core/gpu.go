// Package core assembles the full simulated GPU systems — the memory-side
// UBA baseline, the SM-side UBA (A100-style) and the proposed NUBA — and
// runs kernels on them. It owns the top-level cycle loop, the distributed
// CTA scheduler, request routing between SMs, LLC slices, the NoC and the
// memory controllers, the kernel-boundary software-coherence flushes and
// the MCM (multi-module) variants of Figure 16.
package core

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/dram"
	"github.com/nuba-gpu/nuba/internal/driver"
	"github.com/nuba-gpu/nuba/internal/energy"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/llc"
	"github.com/nuba-gpu/nuba/internal/mdr"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/smcore"
	"github.com/nuba-gpu/nuba/internal/trace"
	"github.com/nuba-gpu/nuba/internal/vm"
)

// GPU is one assembled system.
type GPU struct {
	cfg    config.Config
	stats  *metrics.Stats
	hist   *metrics.SharingHistogram
	mapper *addrmap.Mapper
	drv    *driver.Driver
	vmsys  *vm.System

	sms          []*smcore.SM
	slices       []*llc.Slice
	chans        []*dram.Channel
	prewarmWarps kir.Warps // the prewarm's warp contexts (prewarm.go)

	// parts is the component table (parts.go): one row per SM, slice,
	// channel, crossbar and link set, the VM system and the core's own
	// queues, in that order. Every "all components" walk — the wake scan,
	// quiet, the sanitizer, the watchdog — is a loop over it.
	parts []part
	// asleep holds the sleep deadlines (DESIGN.md §9 "Sleep deadlines"),
	// one set per kind (kindSM, kindSlice, kindChan) with a carrier per
	// component, carved from one allocation: step walks the due ones and
	// componentWake reads the minima.
	asleep [3]sim.Wakes
	// fabric bounds the wake of every carrier moveFabric walks (DESIGN.md
	// §9 "Sleep deadlines"); fabricEnd is the row after the fabric's own.
	fabric    sim.Deadline
	fabricEnd int
	// mods is the number of crossbar domains: MCM modules, the two
	// halves of the SM-side UBA, 1 otherwise; smsPerMod and slicesPerMod
	// are each domain's share (setMods). These and the wires below are set
	// by the architecture's builder (arch_nuba.go, arch_uba.go): the
	// architectures differ in which wires exist, not in how step moves
	// messages over them (moveFabric, route.go).
	mods, smsPerMod, slicesPerMod int

	// Per-module request and reply fabrics (one pair for monolithic
	// GPUs). For the UBA layouts the request fabric runs SMs -> slices
	// and the reply fabric slices -> SMs; for NUBA both fabrics run
	// slice -> slice (inter-partition traffic), with port indices local
	// to the module.
	reqXbars   []*noc.Crossbar
	replyXbars []*noc.Crossbar

	// The point-to-point links: NUBA's request link per SM and reply link
	// per slice, within a partition, and the links between crossbar domains
	// (interLink, nothing on the diagonal). A set the architecture has no
	// use for stays empty.
	smReq, sliceReply sim.Links[*sim.MemReq]
	inter             sim.Links[noc.Msg]
	// The two consumers the builder chooses, as method expressions:
	// acceptReply takes what leaves a reply crossbar at output dst (an SM,
	// or a NUBA slice), acceptInter what leaves inter-domain link k. Both
	// refuse by returning something other than sim.Accepted: the refusal's
	// bound.
	acceptReply func(g *GPU, dst int, req *sim.MemReq, now sim.Cycle) sim.Cycle
	acceptInter func(g *GPU, k int, msg noc.Msg, now sim.Cycle) sim.Cycle

	mdrProf *mdr.Profiler
	mdrCtl  *mdr.Controller

	cycle        sim.Cycle
	launchSeq    int
	vaCursor     uint64
	hitMaxCycles bool
	engine       Engine
	es           EngineStats
	// unsound is the first unsound sleep or park the sanitizer found
	// (checkSleeper, step); audit is where the components report the latter
	// (SetEngine).
	unsound error
	audit   sim.ParkAudit
	// flt is the armed fault-injection state (fault.go); nil unless a
	// test called Inject.
	flt *coreFault
	// wd is the forward-progress watchdog (watchdog.go).
	wd watchdog
	// reqs recycles the requests no SM creates: slice writebacks,
	// SM-side invalidations and page-copy traffic. Each retires where
	// it dies — a write when its burst completes in the channel, an
	// invalidation in the slice, a page-copy read in memRespond.
	reqs sim.ReqPool
	// migQueue holds background page-copy traffic awaiting channel space.
	migQueue    *sim.Queue[*sim.MemReq]
	nextMigScan sim.Cycle

	// invalQueue holds SM-side UBA coherence invalidations awaiting
	// inter-half link space.
	invalQueue *sim.Queue[*sim.MemReq]
	// fillRetry holds SM-side fills that found the inter-half link
	// saturated; retried every cycle.
	fillRetry []*sim.MemReq

	// tracer, when non-nil, receives epoch samples and span events
	// (AttachTracer); tr is the sampler's counter snapshot (trace.go).
	tracer *trace.Tracer
	tr     traceState
}

// New builds a GPU for the configuration.
func New(cfg config.Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		cfg:         cfg,
		stats:       &metrics.Stats{},
		hist:        metrics.NewSharingHistogram(),
		vaCursor:    1 << 40,
		migQueue:    sim.NewQueue[*sim.MemReq](0),
		invalQueue:  sim.NewQueue[*sim.MemReq](0),
		nextMigScan: cfg.MigrationInterval,
		wd:          newWatchdog(watchdogWindow(&cfg)),
		// Room for a row per SM, slice and channel and the dozen others.
		parts: make([]part, 0, cfg.NumSMs+cfg.NumLLCSlices+cfg.NumChannels+16),
	}
	g.mapper = addrmap.New(&g.cfg)
	g.drv = driver.New(&g.cfg, g.mapper)
	g.vmsys = vm.NewSystem(&g.cfg, g.drv, g.stats)

	n := [3]int{cfg.NumSMs, cfg.NumLLCSlices, cfg.NumChannels}
	occ := make(sim.Bits, sim.BitWords(n[0])+sim.BitWords(n[1])+sim.BitWords(n[2]))
	at := make([]sim.Cycle, n[0]+n[1]+n[2])
	for k := range g.asleep {
		words := sim.BitWords(n[k])
		g.asleep[k] = sim.NewWakesIn(kindLabel[k], occ[:words], at[:n[k]])
		occ, at = occ[words:], at[n[k]:]
	}

	// The translation and store-ack ports are the same on every
	// architecture; the builder installs the rest.
	vmRequest, storeDone := g.vmsys.Request, g.storeDone
	for i := 0; i < cfg.NumSMs; i++ {
		s := smcore.New(i, g.cfg.PartitionOfSM(i), &g.cfg, g.stats, g.hist)
		s.VMRequest = vmRequest
		s.PageLookup = g.pageLookup(s.Part)
		s.Sleep().Move(&g.asleep[kindSM], i)
		g.sms = append(g.sms, s)
		g.register(s, kindLabel[kindSM], i)
	}
	for j := 0; j < cfg.NumLLCSlices; j++ {
		sl := llc.New(j, g.cfg.PartitionOfSlice(j), &g.cfg, g.stats)
		sl.StoreDone = storeDone
		sl.Reqs = &g.reqs
		sl.Sleep().Move(&g.asleep[kindSlice], j)
		g.slices = append(g.slices, sl)
		g.register(sl, kindLabel[kindSlice], j)
	}
	for c := 0; c < cfg.NumChannels; c++ {
		ch := dram.NewChannel(c, &g.cfg, g.mapper)
		ch.Reqs = &g.reqs
		ch.Sleep().Move(&g.asleep[kindChan], c)
		g.chans = append(g.chans, ch)
		g.register(ch, kindLabel[kindChan], c)
	}

	// The architecture is chosen here and nowhere else: each builder
	// creates its crossbars and links, registers them in g.parts and
	// installs the routing ports and the two fabric sinks.
	switch cfg.Arch {
	case config.NUBA:
		g.buildNUBA()
	case config.UBASMSide:
		g.buildUBASMSide()
	default:
		g.buildUBAMem()
	}
	g.fabricEnd = len(g.parts)
	for m, x := range g.reqXbars {
		x.Join(&g.fabric)
		g.replyXbars[m].Join(&g.fabric)
	}
	g.fabric.Join(&g.smReq.W, &g.inter.W, &g.sliceReply.W)
	g.fabric.Refold()

	g.register(g.vmsys, "vm system", -1)
	g.register(coreQueues{g}, "core queues", -1)
	return g, nil
}

// MustNew is New that panics on configuration errors, for tests whose
// configurations are static.
func MustNew(cfg config.Config) *GPU {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Stats returns the run statistics.
func (g *GPU) Stats() *metrics.Stats { return g.stats }

// Sharing returns the page-sharing histogram (Figure 3 data).
func (g *GPU) Sharing() *metrics.SharingHistogram { return g.hist }

// Config returns the configuration the GPU was built with.
func (g *GPU) Config() *config.Config { return &g.cfg }

// MDRController returns the MDR controller, or nil when MDR is inactive.
func (g *GPU) MDRController() *mdr.Controller { return g.mdrCtl }

// LiveRequests returns how many memory requests exist that their owner
// has not retired — the SMs' plus the GPU's own. It is zero whenever the
// machine is quiet: every request created has come home.
func (g *GPU) LiveRequests() int64 {
	n := g.reqs.Live()
	for _, s := range g.sms {
		n += s.LiveRequests()
	}
	return n
}

// HitMaxCycles reports whether a run aborted at the MaxCycles safety net.
func (g *GPU) HitMaxCycles() bool { return g.hitMaxCycles }

// setMods fixes the number of crossbar domains and each one's share of
// the SMs and slices, which per-message routing then reads.
func (g *GPU) setMods(n int) {
	g.mods, g.smsPerMod, g.slicesPerMod = n, g.cfg.NumSMs/n, g.cfg.NumLLCSlices/n
}

// moduleOfSM returns the crossbar domain of an SM (the half for SM-side).
func (g *GPU) moduleOfSM(sm int) int { return sm / g.smsPerMod }

// moduleOfSlice returns the crossbar domain of a slice.
func (g *GPU) moduleOfSlice(s int) int { return s / g.slicesPerMod }

// moduleOfChannel returns the crossbar domain of a channel.
func (g *GPU) moduleOfChannel(c int) int { return c / (g.cfg.NumChannels / g.mods) }

// NoCGeometry returns the total crossbar endpoint count (inputs plus
// outputs of the request fabric, summed over modules; the reply fabric
// mirrors it) and the per-port width — the inputs to the DSENT-style
// power model.
func (g *GPU) NoCGeometry() (ports, width int) {
	for _, x := range g.reqXbars {
		ports += x.InPorts() + x.OutPorts()
	}
	return ports, g.cfg.NoCPortBytes()
}

// nocTotals walks every inter-partition carrier once — both crossbar
// fabrics and the inter-domain links — and returns their cumulative bytes
// and busy cycles and the messages in flight now.
func (g *GPU) nocTotals() (bytes, busyCycles int64, occupancy int) {
	bytes, busyCycles, occupancy = g.inter.Totals()
	for m, rq := range g.reqXbars {
		rp := g.replyXbars[m]
		bytes += rq.Bytes() + rp.Bytes()
		busyCycles += rq.BusyCycles() + rp.BusyCycles()
		occupancy += rq.Occupancy() + rp.Occupancy()
	}
	return bytes, busyCycles, occupancy
}

// EnergyBreakdown runs the energy model on the run's counters, filling the
// five energy fields of its Stats.
func (g *GPU) EnergyBreakdown(p energy.Params) {
	ports, width := g.NoCGeometry()
	energy.Compute(&g.cfg, g.stats, ports, width, p)
}

// NewBuffer reserves a page-aligned virtual address range of the given
// size for a kernel buffer binding.
func (g *GPU) NewBuffer(size uint64) uint64 {
	base := g.vaCursor
	pages := (size + g.cfg.PageSize - 1) / g.cfg.PageSize
	g.vaCursor += (pages + 1) * g.cfg.PageSize
	return base
}

// String describes the GPU.
func (g *GPU) String() string {
	return fmt.Sprintf("%s: %d SMs, %d LLC slices, %d channels, NoC %.0f GB/s",
		g.cfg.Arch, g.cfg.NumSMs, g.cfg.NumLLCSlices, g.cfg.NumChannels, g.cfg.NoCBandwidthGBs)
}

package main

import (
	"runtime"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/cache"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/dram"
	"github.com/nuba-gpu/nuba/internal/driver"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/llc"
	"github.com/nuba-gpu/nuba/internal/mdr"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
	"github.com/nuba-gpu/nuba/internal/smcore"
	"github.com/nuba-gpu/nuba/internal/vm"
)

// The layer drivers build each layer standalone through its exported
// constructor and ports, feed it a canned stream drawn from
// sim.NewRNG(seed) and time it from outside. Geometry comes from the
// configuration the NUBA workloads run on.

const (
	// layerOps is the operation count of a driver whose operation costs
	// nanoseconds. Drivers with a costlier operation run a fixed fraction
	// of it: parse+analyze 1/64, completed page walks 1/4, MDR epoch
	// evaluations 1/16.
	layerOps = 1 << 20
	// streamLen is the length of the pre-drawn random stream a driver
	// cycles through, so drawing numbers is not part of the timed loop.
	streamLen = 1 << 16
	// allocRounds is how many fresh drivers share the LAB driver's page
	// placements, so the page table stays a realistic size.
	allocRounds = 16
)

// stream is a pre-drawn random sequence, read cyclically.
type stream []uint64

func newStream(rng *sim.RNG) stream {
	s := make(stream, streamLen)
	for i := range s {
		s[i] = rng.Uint64()
	}
	return s
}

func (s stream) at(i int) uint64 { return s[i&(streamLen-1)] }

// timeOps times body, which returns how many operations it performed, and
// returns nanoseconds and heap allocations per operation.
func timeOps(body func() int) (ns, allocs float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := body()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// ledger collects the drivers' metrics; ops is the operation count of a
// nanosecond-scale driver.
type ledger struct {
	ops int
	m   map[string]metric
}

func (l *ledger) ns(name string, body func() int) {
	ns, _ := timeOps(body)
	l.m[name+"_ns"] = metric{ns, "ns"}
}

func (l *ledger) nsAllocs(name string, body func() int) {
	ns, allocs := timeOps(body)
	l.m[name+"_ns"] = metric{ns, "ns"}
	l.m[name+"_allocs"] = metric{allocs, "objects"}
}

// sink keeps results the compiler could otherwise discard.
var sink uint64

// layerDrivers runs every driver, ops operations each, and returns the
// group-1 metrics.
func layerDrivers(seed uint64, ops int) map[string]metric {
	cfg := nuba.NUBAConfig().Scale(fullSize.scale)
	rng := sim.NewRNG(seed)
	l := &ledger{ops: ops, m: map[string]metric{}}
	driveSim(l, &cfg, newStream(rng))
	driveCache(l, &cfg, newStream(rng))
	driveKIR(l)
	driveSM(l, &cfg)
	driveLLC(l, &cfg, newStream(rng))
	driveDRAM(l, &cfg, newStream(rng))
	driveNoC(l, &cfg, newStream(rng))
	driveVM(l, &cfg, newStream(rng))
	driveDriver(l, &cfg, newStream(rng))
	driveMDR(l, &cfg, newStream(rng))
	driveAddrmap(l, &cfg, newStream(rng))
	return l.m
}

// reqPool hands out requests for a driver to fill in, so the harness
// itself allocates nothing inside a timed loop.
type reqPool struct{ free []*sim.MemReq }

func newReqPool(n int) *reqPool {
	p := &reqPool{free: make([]*sim.MemReq, 0, n)}
	for i := 0; i < n; i++ {
		p.free = append(p.free, &sim.MemReq{})
	}
	return p
}

func (p *reqPool) get() *sim.MemReq {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	*r = sim.MemReq{Size: sim.LineSize, ReplicaSlice: -1, DstReg: 1}
	return r
}

func (p *reqPool) put(r *sim.MemReq) { p.free = append(p.free, r) }

func driveSim(l *ledger, cfg *config.Config, s stream) {
	req := &sim.MemReq{}
	l.nsAllocs("sim.queue_pushpop", func() int {
		// Bursts of 1-8 pushes then as many pops on an elastic queue,
		// the shape of the LLC's LMR/RMR queues.
		q := sim.NewQueue[*sim.MemReq](0)
		ops := 0
		for i := 0; ops < l.ops; i++ {
			burst := 1 + int(s.at(i)&7)
			for j := 0; j < burst; j++ {
				q.Push(req)
			}
			for j := 0; j < burst; j++ {
				q.Pop()
			}
			ops += burst
		}
		return ops
	})
	l.nsAllocs("sim.link_send_drain", func() int {
		// A NUBA point-to-point link fed one message per free cycle,
		// address-only or line-carrying, drained as messages arrive.
		link := sim.NewLink[*sim.MemReq](cfg.LocalLinkLatency, cfg.LocalLinkBytes, cfg.LocalLinkBuffer)
		delivered := 0
		for now := sim.Cycle(1); delivered < l.ops; now++ {
			if link.CanSend(now) {
				bytes := sim.ReqBytes
				if s.at(int(now))&1 == 1 {
					bytes = sim.DataBytes
				}
				link.Send(now, req, bytes)
			}
			for {
				if _, ok := link.Pop(now); !ok {
					break
				}
				delivered++
			}
		}
		return delivered
	})
}

func driveCache(l *ledger, cfg *config.Config, s stream) {
	// An LLC slice's tag array.
	lines := uint64(cfg.LLCSets() * cfg.LLCWays)
	l.ns("cache.access_hit", func() int {
		c := cache.New(cfg.LLCSets(), cfg.LLCWays, cache.WriteBack)
		for a := uint64(0); a < lines; a++ {
			c.Insert(a*sim.LineSize, false, false, 0)
		}
		for i := 0; i < l.ops; i++ {
			if c.Access(s.at(i)%lines*sim.LineSize, false, int64(i)) {
				sink++
			}
		}
		return l.ops
	})
	l.ns("cache.miss_insert", func() int {
		// A footprint 64 times the capacity: nearly every lookup misses
		// and fills, evicting the LRU way.
		c := cache.New(cfg.LLCSets(), cfg.LLCWays, cache.WriteBack)
		for i := 0; i < l.ops; i++ {
			addr := s.at(i) % (64 * lines) * sim.LineSize
			if !c.Access(addr, false, int64(i)) {
				c.Insert(addr, false, false, int64(i))
			}
		}
		return l.ops
	})
	l.ns("cache.mshr_alloc_release", func() int {
		// Half the file outstanding: allocate the new miss, release the
		// oldest.
		m := cache.NewMSHRFile(cfg.LLCMSHRs)
		window := make([]uint64, cfg.LLCMSHRs/2)
		req := &sim.MemReq{}
		for i := 0; i < l.ops; i++ {
			line := (uint64(i)<<20 | s.at(i)&0xfffff) * sim.LineSize
			m.Allocate(line, req, sim.Cycle(i))
			slot := i % len(window)
			if i >= len(window) {
				m.Release(window[slot])
			}
			window[slot] = line
		}
		return l.ops
	})
}

// bumpAlloc is a workload.Alloc over a private address space.
func bumpAlloc() func(uint64) uint64 {
	next := uint64(1) << 40
	return func(bytes uint64) uint64 {
		base := next
		next += (bytes + 2*4096) &^ 4095
		return base
	}
}

// streamLaunch returns LBM's launch, the kernel the SM and interpreter
// drivers run.
func streamLaunch() *kir.Launch {
	b, err := nuba.BenchmarkByAbbr("LBM")
	if err != nil {
		panic(err)
	}
	launches, err := b.Build(bumpAlloc())
	if err != nil {
		panic(err)
	}
	return launches[0]
}

func driveKIR(l *ledger) {
	ns, _ := timeOps(func() int {
		for i := 0; i < l.ops/64; i++ {
			k, err := kir.Parse(sparseSrc)
			if err != nil {
				panic(err)
			}
			kir.AnalyzeReadOnly(k)
		}
		return l.ops / 64
	})
	l.m["kir.parse_analyze_us"] = metric{ns / 1e3, "us"}

	launch := streamLaunch()
	l.ns("kir.warp_exec", func() int {
		// Interpret LBM warp by warp, functionally, as prewarm does.
		var mem kir.MemInfo
		ops := 0
		for cta := 0; ops < l.ops; cta = (cta + 1) % launch.GridDim {
			for wi := 0; wi < launch.WarpsPerCTA(); wi++ {
				for w := kir.NewWarp(launch, cta, wi); !w.Exited; ops++ {
					w.Exec(&mem)
				}
			}
		}
		return ops
	})
}

// smRig wires one SM to an ideal memory that answers every request after
// a fixed delay, as smcore's own testRig does, with the pages of its CTAs
// already placed (as the prewarm leaves them).
type smRig struct {
	sm      *smcore.SM
	vmsys   *vm.System
	launch  *kir.Launch
	ctas    int
	delay   sim.Cycle
	pending *sim.Queue[smReply]
	now     sim.Cycle
}

type smReply struct {
	ready sim.Cycle
	req   *sim.MemReq
}

func newSMRig(cfg *config.Config, delay sim.Cycle) *smRig {
	mapper := addrmap.New(cfg)
	drv := driver.New(cfg, mapper)
	stats := &metrics.Stats{}
	r := &smRig{
		vmsys:   vm.NewSystem(cfg, drv, stats),
		launch:  streamLaunch(),
		delay:   delay,
		pending: sim.NewQueue[smReply](0),
	}
	// The CTA block the distributed scheduler gives one SM.
	r.ctas = r.launch.GridDim / cfg.NumSMs
	shift := mapper.PageShift()
	var mem kir.MemInfo
	for cta := 0; cta < r.ctas; cta++ {
		for wi := 0; wi < r.launch.WarpsPerCTA(); wi++ {
			for w := kir.NewWarp(r.launch, cta, wi); !w.Exited; {
				if w.Exec(&mem).Kind != kir.StepMem {
					continue
				}
				for lane := 0; lane < kir.WarpSize; lane++ {
					if mem.Mask&(1<<uint(lane)) != 0 {
						drv.Allocate(mem.Addrs[lane]>>shift, 0, true)
					}
				}
			}
		}
	}
	r.sm = smcore.New(0, 0, cfg, stats, nil)
	r.sm.VMRequest = r.vmsys.Request
	r.sm.PageLookup = func(vpn uint64, _ sim.Cycle) (uint64, bool, bool) {
		ppn, ok := drv.Translate(vpn, 0)
		return ppn, false, ok
	}
	r.sm.Send = func(req *sim.MemReq, now sim.Cycle) bool {
		r.pending.Push(smReply{ready: now + r.delay, req: req})
		return true
	}
	return r
}

// tick advances the rig one cycle, relaunching the kernel when it drains.
func (r *smRig) tick() {
	r.now++
	if r.sm.Idle() && r.pending.Empty() {
		r.sm.StartKernel(r.launch, 0, r.ctas)
	}
	r.vmsys.Tick(r.now)
	r.sm.Tick(r.now)
	for {
		head, ok := r.pending.Peek()
		if !ok || head.ready > r.now {
			return
		}
		r.pending.Pop()
		r.sm.AcceptReply(head.req, r.now)
	}
}

func driveSM(l *ledger, cfg *config.Config) {
	// An 8-cycle memory keeps the schedulers issuing; a 2000-cycle one
	// leaves nearly every tick with all warps blocked on loads.
	issue := newSMRig(cfg, 8)
	l.nsAllocs("smcore.tick_issue", func() int {
		for i := 0; i < l.ops; i++ {
			issue.tick()
		}
		return l.ops
	})
	stall := newSMRig(cfg, 2000)
	l.ns("smcore.tick_memstall", func() int {
		for i := 0; i < l.ops; i++ {
			stall.tick()
		}
		return l.ops
	})
	// The wake hint as the idle-skip scan reads it, on the states a
	// memory-stalled SM passes through. Only the calls are timed.
	const perTick = 16
	var hint time.Duration
	for i := 0; i < l.ops/perTick; i++ {
		stall.tick()
		start := time.Now()
		for j := 0; j < perTick; j++ {
			sink += uint64(stall.sm.NextWake(stall.now))
		}
		hint += time.Since(start)
	}
	l.m["smcore.nextwake_ns"] = metric{float64(hint.Nanoseconds()) / float64(l.ops), "ns"}
}

// llcRig wires one slice to a memory that fills after a fixed delay and
// an SM side that always accepts replies.
type llcRig struct {
	s     *llc.Slice
	pool  *reqPool
	fills *sim.Queue[smReply]
	now   sim.Cycle
}

// llcFillDelay is the rig's DRAM round trip in core cycles.
const llcFillDelay = 200

func newLLCRig(cfg *config.Config) *llcRig {
	r := &llcRig{
		s:     llc.New(0, 0, cfg, &metrics.Stats{}),
		pool:  newReqPool(1024),
		fills: sim.NewQueue[smReply](0),
	}
	r.s.SendReply = func(req *sim.MemReq, _ sim.Cycle) bool {
		r.pool.put(req)
		return true
	}
	r.s.SendForward = r.s.SendReply
	r.s.StoreDone = func(req *sim.MemReq, _ sim.Cycle) { r.pool.put(req) }
	r.s.SendMiss = func(req *sim.MemReq, now sim.Cycle) bool {
		if req.Kind != sim.Store { // writebacks complete silently
			r.fills.Push(smReply{ready: now + llcFillDelay, req: req})
		}
		return true
	}
	return r
}

// warm makes lines [0, n) resident.
func (r *llcRig) warm(n uint64) {
	for a := uint64(0); a < n; a++ {
		r.s.Tags().Insert(a*sim.LineSize, false, false, 0)
	}
}

// tick delivers due fills, offers one request (when kind is a request
// kind and the pool has one) and ticks the slice.
func (r *llcRig) tick(offer bool, kind sim.ReqKind, addr uint64, remote bool) {
	r.now++
	for {
		head, ok := r.fills.Peek()
		if !ok || head.ready > r.now {
			break
		}
		r.fills.Pop()
		r.s.AcceptFill(head.req, r.now)
	}
	if offer {
		if req := r.pool.get(); req != nil {
			req.Kind, req.Addr = kind, addr
			if remote {
				req.Remote = true
				r.s.EnqueueRemote(req)
			} else {
				r.s.EnqueueLocal(req)
			}
		}
	}
	r.s.Tick(r.now)
}

func driveLLC(l *ledger, cfg *config.Config, s stream) {
	lines := uint64(cfg.LLCSets() * cfg.LLCWays)
	l.ns("llc.tick_hit", func() int {
		r := newLLCRig(cfg)
		r.warm(lines)
		for i := 0; i < l.ops; i++ {
			r.tick(true, sim.Load, s.at(i)%lines*sim.LineSize, false)
		}
		return l.ops
	})
	l.nsAllocs("llc.tick_miss", func() int {
		// A streaming footprint: every load misses, takes an MSHR, goes
		// to memory and is filled llcFillDelay cycles later.
		r := newLLCRig(cfg)
		for i := 0; i < l.ops; i++ {
			r.tick(true, sim.Load, (uint64(i)<<16|s.at(i)&0xffff)*sim.LineSize, false)
		}
		return l.ops
	})
	l.nsAllocs("llc.tick_atomic", func() int {
		// Scattered read-modify-writes to a shared table a little larger
		// than the slice, four in five arriving over the RMR queue.
		r := newLLCRig(cfg)
		r.warm(lines)
		table := lines + lines/8
		for i := 0; i < l.ops; i++ {
			v := s.at(i)
			r.tick(true, sim.Atomic, v%table*sim.LineSize, v>>32%5 != 0)
		}
		return l.ops
	})
	l.ns("llc.tick_idle", func() int {
		r := newLLCRig(cfg)
		for i := 0; i < l.ops; i++ {
			r.tick(false, sim.Load, 0, false)
		}
		return l.ops
	})
}

func driveDRAM(l *ledger, cfg *config.Config, s stream) {
	mapper := addrmap.New(cfg)
	// run ticks a channel l.ops memory cycles, keeping its queue fed
	// with reads at the addresses next yields.
	run := func(feed bool, next func(i int) uint64) func() int {
		return func() int {
			ch := dram.NewChannel(0, cfg, mapper)
			pool := newReqPool(cfg.MemQueueDepth * 2)
			ch.Respond = pool.put
			issued := 0
			for now := int64(1); now <= int64(l.ops); now++ {
				if feed && ch.CanEnqueue() {
					if req := pool.get(); req != nil {
						req.Kind, req.Addr = sim.Load, next(issued)
						ch.Enqueue(req)
						issued++
					}
				}
				ch.Tick(now)
			}
			return l.ops
		}
	}
	// Consecutive lines: seven of eight stay in the open row.
	l.ns("dram.tick_rowhit", run(true, func(i int) uint64 { return uint64(i) * sim.LineSize }))
	// Scattered lines: nearly every access opens a new row.
	l.nsAllocs("dram.tick_rowmiss", run(true, func(i int) uint64 { return s.at(i) >> 16 * sim.LineSize }))
	l.ns("dram.tick_idle", run(false, nil))
}

func driveNoC(l *ledger, cfg *config.Config, s stream) {
	// The inter-partition crossbar of the scaled NUBA GPU: slice to slice.
	ports, width := cfg.NumLLCSlices, cfg.NoCPortBytes()
	ser := func(bytes int) float64 { return float64((bytes + width - 1) / width) }
	meanSer := (ser(sim.ReqBytes) + ser(sim.DataBytes)) / 2
	req := &sim.MemReq{}
	// run offers each input port, whenever it is free, a message with the
	// probability that keeps the port busy the given share of cycles.
	run := func(load float64) func() int {
		p := load / (meanSer - load*meanSer + load)
		threshold := uint64(p * (1 << 32))
		return func() int {
			x := noc.NewCrossbar(ports, ports, width, cfg.NoCLatency, cfg.NoCPortBuffer, cfg.NoCPortBuffer)
			draw := 0
			for now := sim.Cycle(1); now <= sim.Cycle(l.ops); now++ {
				for in := 0; in < ports; in++ {
					if !x.CanInject(in, now) {
						continue
					}
					v := s.at(draw)
					draw++
					if v&0xffffffff >= threshold {
						continue
					}
					bytes := sim.ReqBytes
					if v>>32&1 == 1 {
						bytes = sim.DataBytes
					}
					x.Inject(in, now, noc.Msg{Req: req, Dst: int(v >> 40 % uint64(ports)), Bytes: bytes})
				}
				x.Tick(now)
				for out := 0; out < ports; out++ {
					for {
						if _, ok := x.Pop(out, now); !ok {
							break
						}
					}
				}
			}
			return l.ops
		}
	}
	l.ns("noc.tick_load10", run(0.10))
	l.nsAllocs("noc.tick_load50", run(0.50))
	l.ns("noc.tick_load90", run(0.90))
}

func driveVM(l *ledger, cfg *config.Config, s stream) {
	l.ns("vm.tlb_lookup", func() int {
		// A working set twice the L1 TLB: half the lookups miss and fill.
		t := vm.NewTLB(cfg.L1TLBEntries, 8)
		span := uint64(2 * cfg.L1TLBEntries)
		for i := 0; i < l.ops; i++ {
			if vpn := s.at(i) % span; !t.Lookup(vpn, int64(i)) {
				t.Insert(vpn, int64(i))
			}
		}
		return l.ops
	})
	l.nsAllocs("vm.walk", func() int {
		// Translations of mapped pages, sixteen times more of them than
		// the L2 TLB holds, so most requests walk; at most two walker
		// pools' worth in flight. One op is one completed translation.
		drv := driver.New(cfg, addrmap.New(cfg))
		sys := vm.NewSystem(cfg, drv, &metrics.Stats{})
		pages := uint64(16 * cfg.L2TLBEntries)
		for vpn := uint64(0); vpn < pages; vpn++ {
			drv.Allocate(vpn, int(vpn)%cfg.NumPartitions(), true)
		}
		issued, completed := 0, 0
		done := func() { completed++ }
		for now := sim.Cycle(1); completed < l.ops/4; now++ {
			for port := 0; port < cfg.L2TLBPorts && issued-completed < 2*cfg.PageWalkers; port++ {
				if sys.Request(0, s.at(issued)%pages, true, now, done) {
					issued++
				}
			}
			sys.Tick(now)
		}
		return completed
	})
}

func driveDriver(l *ledger, cfg *config.Config, s stream) {
	l.ns("driver.allocate_lab", func() int {
		// First touches skewed toward the low partitions, so LAB's
		// balance check sends some of them least-first.
		mapper := addrmap.New(cfg)
		parts := uint64(cfg.NumPartitions())
		for round := 0; round < allocRounds; round++ {
			drv := driver.New(cfg, mapper)
			for i := 0; i < l.ops/allocRounds; i++ {
				v := s.at(i + round)
				drv.Allocate(uint64(i), int(min(v%parts, v>>32%parts)), true)
			}
		}
		return l.ops / allocRounds * allocRounds
	})
}

func driveMDR(l *ledger, cfg *config.Config, s stream) {
	// Loads as the router hands them to the profiler: a fifth local, most
	// of the rest read-only, homes spread over every slice.
	reqs := make([]sim.MemReq, 4096)
	for i := range reqs {
		v := s.at(i)
		reqs[i] = sim.MemReq{Kind: sim.Load, Addr: v >> 20 * sim.LineSize, ReadOnly: v&3 != 0}
	}
	slices := uint64(cfg.NumLLCSlices)
	observe := func(p *mdr.Profiler, i int) {
		v := s.at(i)
		p.Observe(&reqs[i%len(reqs)], int(v%slices), v>>8%5 == 0, int(v>>16%uint64(cfg.SlicesPerPartitionActual())), sim.Cycle(i))
	}
	l.ns("mdr.observe", func() int {
		p := mdr.NewProfiler(cfg, 0)
		for i := 0; i < l.ops; i++ {
			observe(p, i)
		}
		return l.ops
	})
	// One op is one epoch-boundary evaluation; the observations that
	// give it samples to evaluate are not timed.
	p := mdr.NewProfiler(cfg, 0)
	ctl := mdr.NewController(cfg, &metrics.Stats{}, p)
	var eval time.Duration
	for e := 0; e < l.ops/16; e++ {
		for i := 0; i < 64; i++ {
			observe(p, e*64+i)
		}
		start := time.Now()
		ctl.Tick(sim.Cycle(e+1) * cfg.MDREpoch)
		eval += time.Since(start)
	}
	l.m["mdr.epoch_ns"] = metric{float64(eval.Nanoseconds()) / float64(l.ops/16), "ns"}
}

func driveAddrmap(l *ledger, cfg *config.Config, s stream) {
	l.ns("addrmap.map", func() int {
		m := addrmap.New(cfg)
		for i := 0; i < l.ops; i++ {
			addr := s.at(i) >> 16
			sink += uint64(m.Channel(addr)+m.Bank(addr)+m.Slice(addr)) + m.Row(addr)
		}
		return l.ops
	})
}

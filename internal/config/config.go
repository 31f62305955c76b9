// Package config defines the simulated GPU configurations. The Baseline
// configuration reproduces Table 1 of the NUBA paper: 64 SMs at 1.4 GHz,
// 64 LLC slices (6 MB total), 32 HBM channels (720 GB/s), a 1.4 TB/s
// hierarchical crossbar NoC and, for NUBA, 2.8 TB/s aggregate point-to-point
// links between SMs and their local LLC slices.
package config

import (
	"fmt"
	"math"
	"strings"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// Arch selects the GPU system architecture being simulated (Figure 1).
type Arch int

// Architectures evaluated in the paper.
const (
	// UBAMem is the conventional memory-side Uniform Bandwidth
	// Architecture: a crossbar between all L1s and all LLC slices, each
	// slice caching a fixed slice of the physical address space.
	UBAMem Arch = iota
	// UBASMSide is the SM-side UBA (as in NVIDIA's A100): two LLC
	// partitions whose slices cache any address, kept consistent by
	// cross-partition invalidations.
	UBASMSide
	// NUBA is the proposed Non-Uniform Bandwidth Architecture:
	// partitions of SMs + LLC slices + one memory controller with wide
	// local point-to-point links and an inter-partition crossbar.
	NUBA
)

// spelling is how one value of a policy enum is written: Table is the
// name result tables print (String), Flag the short form a command line
// takes. The Parse functions accept either, in any case, so a tool can
// be given back any name it printed.
type spelling struct{ Table, Flag string }

// The one table per enum that String, Parse* and *Usage read.
var (
	archNames = [...]spelling{
		UBAMem:    {"UBA-mem", "uba"},
		UBASMSide: {"UBA-SM", "sm-side"},
		NUBA:      {"NUBA", "nuba"},
	}
	placementNames = [...]spelling{
		FirstTouch:      {"first-touch", "ft"},
		RoundRobin:      {"round-robin", "rr"},
		LAB:             {"LAB", "lab"},
		Migration:       {"migration", "migration"},
		PageReplication: {"page-replication", "pagerep"},
	}
	replicationNames = [...]spelling{
		NoRep:   {"No-Rep", "none"},
		FullRep: {"Full-Rep", "full"},
		MDR:     {"MDR", "mdr"},
	}
)

// tableName is String for all three enums: an array read, so that
// Config.Fingerprint's %+v allocates nothing for them.
func tableName(names []spelling, kind string, v int) string {
	if v >= 0 && v < len(names) {
		return names[v].Table
	}
	return fmt.Sprintf("%s(%d)", kind, v)
}

// parseSpelling is Parse* for all three enums.
func parseSpelling(names []spelling, kind, s string) (int, error) {
	for v, n := range names {
		if strings.EqualFold(s, n.Table) || strings.EqualFold(s, n.Flag) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", kind, s, flagUsage(names))
}

// flagUsage lists the flag spellings for help text: "uba | sm-side | nuba".
func flagUsage(names []spelling) string {
	flags := make([]string, len(names))
	for v, n := range names {
		flags[v] = n.Flag
	}
	return strings.Join(flags, " | ")
}

// String returns the architecture name used in result tables.
func (a Arch) String() string { return tableName(archNames[:], "Arch", int(a)) }

// ParseArch parses an -arch flag value: a name ArchUsage lists or one
// String prints ("sm-side", "UBA-SM"), in any case.
func ParseArch(s string) (Arch, error) {
	v, err := parseSpelling(archNames[:], "arch", s)
	return Arch(v), err
}

// ArchUsage lists the -arch flag spellings for help text.
func ArchUsage() string { return flagUsage(archNames[:]) }

// AddressMapping selects the physical address mapping policy.
type AddressMapping int

// Address mapping policies (Section 2).
const (
	// FixedChannel keeps channel bits outside the page offset and copies
	// them verbatim so the driver controls page placement; bank bits are
	// randomized by harvesting entropy from row bits (Figure 2).
	FixedChannel AddressMapping = iota
	// PAE additionally randomizes the channel bits (Liu et al., ISCA'18).
	// PAE defeats driver-controlled placement and is evaluated only for
	// UBA in the sensitivity analysis.
	PAE
)

// String returns the mapping name.
func (m AddressMapping) String() string {
	if m == PAE {
		return "PAE"
	}
	return "fixed-channel"
}

// PlacementPolicy selects the driver's page placement policy (Section 4).
type PlacementPolicy int

// Page placement policies.
const (
	// FirstTouch places a page in the partition of the first SM to
	// touch it.
	FirstTouch PlacementPolicy = iota
	// RoundRobin distributes pages evenly across channels.
	RoundRobin
	// LAB is Local-And-Balanced: first-touch while the normalized page
	// balance is above the threshold, least-first otherwise.
	LAB
	// Migration is the §7.6 alternative: access-count-driven page
	// migration between partitions at fixed intervals.
	Migration
	// PageReplication is the §7.6 alternative: page-granularity
	// replication into reader partitions when memory is free.
	PageReplication
)

// String returns the policy name used in result tables.
func (p PlacementPolicy) String() string {
	return tableName(placementNames[:], "PlacementPolicy", int(p))
}

// ParsePlacement parses a -placement flag value: a name PlacementUsage
// lists or one String prints ("rr", "round-robin"), in any case.
func ParsePlacement(s string) (PlacementPolicy, error) {
	v, err := parseSpelling(placementNames[:], "placement", s)
	return PlacementPolicy(v), err
}

// PlacementUsage lists the -placement flag spellings for help text.
func PlacementUsage() string { return flagUsage(placementNames[:]) }

// ReplicationPolicy selects the cache-line replication policy (Section 5).
type ReplicationPolicy int

// Replication policies.
const (
	// NoRep never replicates: remote read-only data stays remote.
	NoRep ReplicationPolicy = iota
	// FullRep always replicates read-only shared lines locally.
	FullRep
	// MDR replicates only when the analytical bandwidth model predicts
	// a net gain, re-evaluated every epoch.
	MDR
)

// String returns the policy name used in result tables.
func (r ReplicationPolicy) String() string {
	return tableName(replicationNames[:], "ReplicationPolicy", int(r))
}

// ParseReplication parses a -replication flag value: a name
// ReplicationUsage lists or one String prints ("full", "Full-Rep"), in
// any case.
func ParseReplication(s string) (ReplicationPolicy, error) {
	v, err := parseSpelling(replicationNames[:], "replication", s)
	return ReplicationPolicy(v), err
}

// ReplicationUsage lists the -replication flag spellings for help text.
func ReplicationUsage() string { return flagUsage(replicationNames[:]) }

// HBMTiming holds the DRAM timing parameters of Table 1, every one in
// memory-clock cycles (350 MHz) — not the core-clock sim.Cycle.
type HBMTiming struct {
	TRC   int // ACT to ACT, same bank
	TRCD  int // ACT to CAS
	TRP   int // PRE to ACT
	TCL   int // CAS to data
	TWL   int // write CAS to data
	TRAS  int // ACT to PRE
	TRRDL int // ACT to ACT, same bank group
	TRRDS int // ACT to ACT, different bank group
	TFAW  int // four-activate window
	TRTP  int // READ to PRE
	TCCDL int // CAS to CAS, same bank group
	TCCDS int // CAS to CAS, different bank group
	TWTRL int // write to read, same bank group
	TWTRS int // write to read, different bank group
	TWR   int // write recovery
}

// DefaultHBMTiming returns the Table 1 HBM timing.
func DefaultHBMTiming() HBMTiming {
	return HBMTiming{
		TRC: 24, TRCD: 7, TRP: 7, TCL: 7, TWL: 2, TRAS: 17,
		TRRDL: 5, TRRDS: 4, TFAW: 20, TRTP: 7,
		TCCDL: 1, TCCDS: 1, TWTRL: 4, TWTRS: 2, TWR: 8,
	}
}

// Config is a complete description of one simulated GPU system. Zero
// values are not meaningful; start from Baseline() and adjust.
type Config struct {
	Arch Arch
	Seed uint64

	// Core clock in GHz; the memory clock is CoreClockGHz/MemClockDiv.
	CoreClockGHz float64
	MemClockDiv  int

	// SM organization.
	NumSMs          int
	WarpsPerSM      int
	SchedulersPerSM int // dual GTO schedulers in the baseline
	MaxCTAsPerSM    int

	// L1 data cache (per SM): write-through, write-no-allocate.
	L1Bytes      int
	L1Ways       int
	L1MSHRs      int
	L1Latency    sim.Cycle
	L1TLBEntries int
	L1TLBLatency sim.Cycle

	// Shared L2 TLB and page walking.
	L2TLBEntries int
	L2TLBWays    int
	L2TLBLatency sim.Cycle
	L2TLBPorts   int
	PageWalkers  int
	// PageWalkLatency is the latency of a page table walk that hits in
	// memory.
	PageWalkLatency sim.Cycle
	// PageFaultLatency is the fixed 20 us first-touch fault penalty.
	PageFaultLatency sim.Cycle
	PageSize         uint64 // bytes

	// LLC organization: NumLLCSlices slices of LLCSliceBytes each.
	NumLLCSlices  int
	LLCSliceBytes int
	LLCWays       int
	LLCLatency    sim.Cycle
	LLCMSHRs      int

	// Memory system.
	NumChannels   int
	BanksPerChan  int
	MemQueueDepth int
	Timing        HBMTiming
	// MemBusBytesPerMemCycle is the per-channel data bus width per
	// memory-clock cycle: 64 B gives 32 ch × 64 B × 350 MHz ≈ 720 GB/s.
	MemBusBytesPerMemCycle int

	// NoC: the inter-partition network.
	NoCBandwidthGBs float64 // aggregate injection bandwidth
	// NoCLatency is the hierarchical crossbar traversal (two 4-cycle
	// stages).
	NoCLatency    sim.Cycle
	NoCPortBuffer int

	// NUBA point-to-point links between SMs and local LLC slices.
	// LocalLinkBytes is the link width in bytes per cycle (32 B ≈
	// 2.8 TB/s aggregate).
	LocalLinkBytes   int
	LocalLinkLatency sim.Cycle
	LocalLinkBuffer  int

	// Policies.
	AddressMap   AddressMapping
	Placement    PlacementPolicy
	LABThreshold float64
	Replication  ReplicationPolicy
	MDREpoch     sim.Cycle
	// MDREvalDelay is the 116-cycle hardware model evaluation.
	MDREvalDelay  sim.Cycle
	MDRSampleSets int // dynamic set sampling: 8 sets per slice

	// Migration/PageReplication knobs (§7.6 alternatives).
	MigrationInterval  sim.Cycle
	MigrationThreshold int

	// MCM configuration (Figure 15/16). When NumModules > 1, the
	// crossbar is split per module and inter-module traffic uses links of
	// InterModuleGBs bidirectional bandwidth per module.
	NumModules     int
	InterModuleGBs float64

	// ColdStart disables the placement prewarm: every first touch then
	// pays the full demand-fault penalty during the timed run. The
	// default (false) models the paper's representative mid-execution
	// window, where the working set was faulted in and placed during
	// warmup (see internal/core/prewarm.go).
	ColdStart bool

	// MaxCycles aborts a run that fails to drain (safety net).
	MaxCycles int64
}

// Baseline returns the Table 1 memory-side UBA GPU: 64 SMs, 64 LLC slices,
// 32 channels, 1.4 TB/s NoC, fixed-channel address mapping. UBA uses
// round-robin page placement: with the fixed-channel map, spreading pages
// evenly is the best a UBA driver can do (first-touch-style placement
// would concentrate each SM's traffic on one channel's slices).
func Baseline() Config {
	return Config{
		Arch:         UBAMem,
		Seed:         1,
		CoreClockGHz: 1.4,
		MemClockDiv:  4,

		NumSMs:          64,
		WarpsPerSM:      64,
		SchedulersPerSM: 2,
		MaxCTAsPerSM:    32,

		L1Bytes:      48 * 1024,
		L1Ways:       6,
		L1MSHRs:      128,
		L1Latency:    1,
		L1TLBEntries: 128,
		L1TLBLatency: 1,

		L2TLBEntries:     512,
		L2TLBWays:        16,
		L2TLBLatency:     10,
		L2TLBPorts:       2,
		PageWalkers:      64,
		PageWalkLatency:  200,
		PageFaultLatency: 28000, // 20 us at 1.4 GHz
		PageSize:         4096,

		NumLLCSlices:  64,
		LLCSliceBytes: 96 * 1024, // 64 slices * 96 KB = 6 MB
		LLCWays:       16,
		LLCLatency:    120,
		LLCMSHRs:      128,

		NumChannels:            32,
		BanksPerChan:           16,
		MemQueueDepth:          64,
		Timing:                 DefaultHBMTiming(),
		MemBusBytesPerMemCycle: 64,

		NoCBandwidthGBs: 1400,
		NoCLatency:      8,
		NoCPortBuffer:   32,

		LocalLinkBytes:   32,
		LocalLinkLatency: 1,
		LocalLinkBuffer:  8,

		AddressMap:    FixedChannel,
		Placement:     RoundRobin,
		LABThreshold:  0.9,
		Replication:   NoRep,
		MDREpoch:      20000,
		MDREvalDelay:  116,
		MDRSampleSets: 8,

		MigrationInterval:  50000,
		MigrationThreshold: 64,

		NumModules:     1,
		InterModuleGBs: 0,

		MaxCycles: 80_000_000,
	}
}

// NUBABaseline returns the paper's performance-optimized NUBA GPU:
// the Baseline resources rearranged into 32 partitions of {2 SMs, 2 LLC
// slices, 1 channel} with LAB placement and MDR replication.
func NUBABaseline() Config {
	c := Baseline()
	c.Arch = NUBA
	c.Placement = LAB
	c.Replication = MDR
	return c
}

// SMSideBaseline returns the SM-side UBA configuration (two LLC
// partitions of 32 slices each, as in the A100).
func SMSideBaseline() Config {
	c := Baseline()
	c.Arch = UBASMSide
	return c
}

// WithArch returns a copy of c with the architecture (and the
// architecture-appropriate default policies) switched.
func (c Config) WithArch(a Arch) Config {
	c.Arch = a
	if a == NUBA {
		c.Placement = LAB
		c.Replication = MDR
	} else {
		c.Placement = RoundRobin
		c.Replication = NoRep
	}
	return c
}

// WithNoC returns a copy of c with the aggregate NoC bandwidth replaced
// (700, 1400, 2800 or 5600 GB/s in Figure 10).
func (c Config) WithNoC(gbs float64) Config {
	c.NoCBandwidthGBs = gbs
	return c
}

// Scale returns a copy of c with compute, LLC slice count, memory
// channels and the aggregate NoC and inter-module bandwidths scaled by
// factor, keeping the 2:2:1 SM:slice:channel ratio, every bandwidth per SM
// and per-slice capacity constant, as in the Figure 14 GPU-size sweep.
// factor must make all counts integral (nuba.CheckScale checks a -scale).
func (c Config) Scale(factor float64) Config {
	c.NumSMs = int(float64(c.NumSMs) * factor)
	c.NumLLCSlices = int(float64(c.NumLLCSlices) * factor)
	c.NumChannels = int(float64(c.NumChannels) * factor)
	c.NoCBandwidthGBs *= factor
	c.InterModuleGBs *= factor
	return c
}

// WithPartition returns a copy of c with the number of LLC slices per
// partition changed while keeping the total LLC capacity constant (the
// Figure 14 partition-ratio sweep: 1, 2 or 4 slices per channel).
func (c Config) WithPartition(slicesPerChannel int) Config {
	total := c.NumLLCSlices * c.LLCSliceBytes
	c.NumLLCSlices = c.NumChannels * slicesPerChannel
	c.LLCSliceBytes = total / c.NumLLCSlices
	return c
}

// WithLLCCapacity returns a copy of c with total LLC capacity scaled by
// factor at a constant slice count.
func (c Config) WithLLCCapacity(factor float64) Config {
	c.LLCSliceBytes = int(float64(c.LLCSliceBytes) * factor)
	return c
}

// MCM returns the Figure 16 multi-chip-module configuration: the 2x-scaled
// GPU (128 SMs, 128 slices, 64 channels) split across four modules with
// 720 GB/s bidirectional inter-module links.
func MCM(a Arch) Config {
	c := Baseline().Scale(2).WithArch(a)
	c.NumModules = 4
	c.InterModuleGBs = 720
	return c
}

// Derived topology helpers.

// NumPartitions returns the number of NUBA partitions (= memory channels).
func (c *Config) NumPartitions() int { return c.NumChannels }

// PartitionOfSM returns the partition that SM sm belongs to.
func (c *Config) PartitionOfSM(sm int) int {
	return sm / c.SMsPerPartitionActual()
}

// PartitionOfSlice returns the partition that LLC slice s belongs to.
func (c *Config) PartitionOfSlice(s int) int {
	return s / c.SlicesPerPartitionActual()
}

// SMsPerPartitionActual returns NumSMs / NumPartitions.
func (c *Config) SMsPerPartitionActual() int { return c.NumSMs / c.NumPartitions() }

// SlicesPerPartitionActual returns NumLLCSlices / NumPartitions.
func (c *Config) SlicesPerPartitionActual() int { return c.NumLLCSlices / c.NumPartitions() }

// NoCPortBytes returns the per-port link width in bytes per cycle implied
// by the aggregate NoC bandwidth: width = BW / clock / ports, with one
// port per LLC slice (the narrow side of the crossbar). The baseline
// 1.4 TB/s over 64 ports at 1.4 GHz gives 16 B per cycle per port.
func (c *Config) NoCPortBytes() int {
	ports := c.NumLLCSlices
	if ports == 0 {
		return 1
	}
	w := c.NoCBandwidthGBs / (c.CoreClockGHz * float64(ports))
	if w < 1 {
		return 1
	}
	// The paper's nominal bandwidths (700 GB/s ... 5.6 TB/s) correspond
	// to power-of-two link widths (8 B ... 64 B) at 1.4 GHz; snap to a
	// power of two when within 15% so marketing-rounded numbers yield
	// clean hardware widths.
	for p := 1; p <= 512; p <<= 1 {
		f := w / float64(p)
		if f > 0.85 && f < 1.15 {
			return p
		}
	}
	return int(w + 0.5)
}

// LLCSets returns the number of sets per LLC slice.
func (c *Config) LLCSets() int { return c.LLCSliceBytes / (c.LLCWays * sim.LineSize) }

// L1Sets returns the number of sets per L1 cache.
func (c *Config) L1Sets() int { return c.L1Bytes / (c.L1Ways * sim.LineSize) }

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (c *Config) Validate() error {
	t := &c.Timing
	switch {
	case c.Arch < 0 || int(c.Arch) >= len(archNames):
		return fmt.Errorf("config: Arch %d out of range (want %s)", c.Arch, ArchUsage())
	case c.AddressMap < 0 || c.AddressMap > PAE:
		return fmt.Errorf("config: AddressMap %d out of range (want %s or %s)", c.AddressMap, FixedChannel, PAE)
	case c.Placement < 0 || int(c.Placement) >= len(placementNames):
		return fmt.Errorf("config: Placement %d out of range (want %s)", c.Placement, PlacementUsage())
	case c.Replication < 0 || int(c.Replication) >= len(replicationNames):
		return fmt.Errorf("config: Replication %d out of range (want %s)", c.Replication, ReplicationUsage())
	case min(c.L1Latency, c.L1TLBLatency, c.L2TLBLatency, c.PageWalkLatency, c.PageFaultLatency, c.LLCLatency, c.MDREvalDelay) < 0:
		return fmt.Errorf("config: latencies must not be negative (L1Latency %d, L1TLBLatency %d, L2TLBLatency %d, PageWalkLatency %d, PageFaultLatency %d, LLCLatency %d, MDREvalDelay %d)",
			c.L1Latency, c.L1TLBLatency, c.L2TLBLatency, c.PageWalkLatency, c.PageFaultLatency, c.LLCLatency, c.MDREvalDelay)
	case min(t.TRC, t.TRCD, t.TRP, t.TCL, t.TWL, t.TRAS, t.TRRDL, t.TRRDS, t.TFAW, t.TRTP, t.TCCDL, t.TCCDS, t.TWTRL, t.TWTRS, t.TWR) < 0:
		return fmt.Errorf("config: HBM timings must not be negative (Timing %+v)", *t)
	case c.MDREpoch < 1:
		return fmt.Errorf("config: MDREpoch %d must be positive (MDR re-evaluates, and a trace samples by default, once per epoch)", c.MDREpoch)
	case c.NumSMs <= 0 || c.NumLLCSlices <= 0 || c.NumChannels <= 0:
		return fmt.Errorf("config: SMs/slices/channels must be positive (%d/%d/%d)",
			c.NumSMs, c.NumLLCSlices, c.NumChannels)
	case max(c.NumSMs, c.NumLLCSlices, c.NumChannels, c.WarpsPerSM) > math.MaxInt16:
		return fmt.Errorf("config: NumSMs %d, NumLLCSlices %d, NumChannels %d and WarpsPerSM %d must each be at most %d (a request carries their indices as int16)",
			c.NumSMs, c.NumLLCSlices, c.NumChannels, c.WarpsPerSM, math.MaxInt16)
	case c.NumSMs%c.NumChannels != 0:
		return fmt.Errorf("config: %d SMs not divisible across %d partitions", c.NumSMs, c.NumChannels)
	case c.NumLLCSlices%c.NumChannels != 0:
		return fmt.Errorf("config: %d LLC slices not divisible across %d partitions", c.NumLLCSlices, c.NumChannels)
	case c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("config: page size %d is not a power of two", c.PageSize)
	case c.L1Ways < 1 || c.LLCWays < 1:
		return fmt.Errorf("config: cache associativity must be positive (L1Ways %d, LLCWays %d)", c.L1Ways, c.LLCWays)
	case c.L1Sets() <= 0 || c.LLCSets() <= 0:
		return fmt.Errorf("config: cache geometry yields no sets (L1 %d, LLC %d)", c.L1Sets(), c.LLCSets())
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("config: WarpsPerSM %d must be positive", c.WarpsPerSM)
	case c.SchedulersPerSM < 1:
		return fmt.Errorf("config: SchedulersPerSM %d must be positive (warp slots are dealt to schedulers round-robin)",
			c.SchedulersPerSM)
	case (c.WarpsPerSM+c.SchedulersPerSM-1)/c.SchedulersPerSM > MaxWarpsPerScheduler:
		return fmt.Errorf("config: %d warps over %d schedulers puts more than %d on one (a scheduler tracks its warps' readiness in one 64-bit mask)",
			c.WarpsPerSM, c.SchedulersPerSM, MaxWarpsPerScheduler)
	case c.MemClockDiv <= 0:
		return fmt.Errorf("config: MemClockDiv must be positive")
	case !positiveFinite(c.CoreClockGHz):
		return fmt.Errorf("config: CoreClockGHz %g must be positive and finite (bandwidths in GB/s become bytes per core cycle through it)", c.CoreClockGHz)
	case !positiveFinite(c.NoCBandwidthGBs):
		return fmt.Errorf("config: NoCBandwidthGBs %g must be positive and finite (it sets the crossbar's port width)", c.NoCBandwidthGBs)
	case c.MaxCTAsPerSM < 1:
		return fmt.Errorf("config: MaxCTAsPerSM %d must be positive (an SM that admits no CTA never starts its share of the grid)", c.MaxCTAsPerSM)
	case c.Arch == UBASMSide && c.NumModules > 1:
		return fmt.Errorf("config: the SM-side UBA is one chip of two halves and has no inter-module links (NumModules %d)", c.NumModules)
	// SMs and slices are whole multiples of the channels (above), so a
	// crossbar domain — an MCM module, a half of the SM-side UBA — holds
	// its share of all three iff it holds a whole number of channels.
	case c.Arch == UBASMSide && c.NumChannels%2 != 0:
		return fmt.Errorf("config: SM-side UBA needs an even number of channels to split into two halves (NumChannels %d)", c.NumChannels)
	case c.NumModules > 1 && c.NumChannels%c.NumModules != 0:
		return fmt.Errorf("config: %d channels (with their SMs and slices) not divisible across %d modules", c.NumChannels, c.NumModules)
	case c.NumModules > 1 && !positiveFinite(c.InterModuleGBs):
		return fmt.Errorf("config: InterModuleGBs %g must be positive and finite on %d modules (it sets the inter-module links' width)", c.InterModuleGBs, c.NumModules)
	case c.LABThreshold <= 0 || c.LABThreshold > 1:
		return fmt.Errorf("config: LAB threshold %.2f out of (0,1]", c.LABThreshold)
	case c.BanksPerChan < 1 || c.BanksPerChan > MaxBanksPerChan:
		return fmt.Errorf("config: BanksPerChan %d out of [1,%d] (the memory controller tracks banks in one 64-bit mask)",
			c.BanksPerChan, MaxBanksPerChan)
	case c.MemQueueDepth < 1 || c.MemQueueDepth > maxTableEntries:
		return fmt.Errorf("config: MemQueueDepth %d out of [1,%d] (a memory controller with no bounded queue never back-pressures; its queue is a fixed array of that many slots)",
			c.MemQueueDepth, maxTableEntries)
	case c.L1MSHRs < 1 || c.LLCMSHRs < 1 || c.L1MSHRs > maxTableEntries || c.LLCMSHRs > maxTableEntries:
		return fmt.Errorf("config: MSHR files must have 1 to %d entries (L1MSHRs %d, LLCMSHRs %d; each is a table of twice that many slots)",
			maxTableEntries, c.L1MSHRs, c.LLCMSHRs)
	case c.MDRSampleSets < 1 || c.MemBusBytesPerMemCycle < 1:
		return fmt.Errorf("config: MDRSampleSets %d and MemBusBytesPerMemCycle %d must be positive", c.MDRSampleSets, c.MemBusBytesPerMemCycle)
	case c.L1TLBEntries < 1 || c.L1TLBEntries%L1TLBWays != 0 || c.L2TLBWays < 1 || c.L2TLBEntries < 1 || c.L2TLBEntries%c.L2TLBWays != 0:
		return fmt.Errorf("config: TLB geometry invalid: entries must be a positive multiple of the ways (L1TLBEntries %d over %d ways, L2TLBEntries %d over L2TLBWays %d)",
			c.L1TLBEntries, L1TLBWays, c.L2TLBEntries, c.L2TLBWays)
	case c.L2TLBPorts < 1 || c.PageWalkers < 1:
		return fmt.Errorf("config: L2TLBPorts %d and PageWalkers %d must be positive (a translation that misses the L1 TLB would wait forever)",
			c.L2TLBPorts, c.PageWalkers)
	case c.Placement == Migration && c.MigrationInterval < 1:
		return fmt.Errorf("config: MigrationInterval %d must be positive under migration placement (the page scan would run every cycle)", c.MigrationInterval)
	case c.MaxCycles < 1:
		return fmt.Errorf("config: MaxCycles %d must be positive", c.MaxCycles)
	case c.NoCLatency < 0 || c.NoCPortBuffer < 1:
		return fmt.Errorf("config: NoCLatency %d must not be negative and NoCPortBuffer %d must be positive (a buffer of no size never back-pressures)", c.NoCLatency, c.NoCPortBuffer)
	case c.Arch == NUBA && (c.LocalLinkBytes < 1 || c.LocalLinkLatency < 0 || c.LocalLinkBuffer < 1):
		return fmt.Errorf("config: NUBA's links need a positive LocalLinkBytes %d and LocalLinkBuffer %d and a LocalLinkLatency %d not below zero", c.LocalLinkBytes, c.LocalLinkBuffer, c.LocalLinkLatency)
	}
	return nil
}

// positiveFinite reports whether x is a number above zero and below +Inf.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// L1TLBWays is the associativity of every SM's L1 TLB.
const L1TLBWays = 8

// MaxBanksPerChan is the most DRAM banks a channel can have: the FR-FCFS
// scheduler's bank sets are one machine word each.
const MaxBanksPerChan = 64

// maxTableEntries bounds MemQueueDepth, L1MSHRs and LLCMSHRs: the memory
// controller and the MSHR files allocate fixed tables of that size up
// front, and the controller names its slots in 16 bits.
const maxTableEntries = 4096

// MaxWarpsPerScheduler is the most warp slots one SM warp scheduler can
// own: its ready, memory-op and timed-wait sets are one machine word each,
// one bit per warp in age order.
const MaxWarpsPerScheduler = 64

// Fingerprint returns a canonical identity string covering every
// semantic field of the configuration, including nested timing. Two
// configurations share a fingerprint iff they describe the same simulated
// system, so the string is safe as a memoization key (the experiment
// engine's run cache) and for test assertions. The %+v rendering walks
// the whole struct by reflection, so newly added fields are covered
// automatically rather than silently aliasing distinct configs the way a
// hand-picked field list would.
func (c *Config) Fingerprint() string {
	return fmt.Sprintf("%+v", *c)
}

// Name returns a short identifier for result tables, e.g.
// "NUBA/LAB/MDR/1400GBs".
func (c *Config) Name() string {
	s := c.Arch.String()
	if c.Arch == NUBA {
		s += "/" + c.Placement.String() + "/" + c.Replication.String()
	}
	return fmt.Sprintf("%s/%.0fGBs", s, c.NoCBandwidthGBs)
}

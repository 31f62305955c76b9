package config

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBaselineMatchesTable1(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The Table 1 headline numbers.
	if c.NumSMs != 64 || c.NumLLCSlices != 64 || c.NumChannels != 32 {
		t.Fatal("SM/slice/channel counts wrong")
	}
	if c.WarpsPerSM != 64 || c.SchedulersPerSM != 2 {
		t.Fatal("SM geometry wrong")
	}
	if c.L1Bytes != 48*1024 || c.L1Ways != 6 || c.L1Sets() != 64 || c.L1MSHRs != 128 {
		t.Fatal("L1 geometry wrong")
	}
	if c.NumLLCSlices*c.LLCSliceBytes != 6*1024*1024 || c.LLCWays != 16 || c.LLCSets() != 48 {
		t.Fatal("LLC geometry wrong")
	}
	if c.L1TLBEntries != 128 || c.L2TLBEntries != 512 || c.L2TLBWays != 16 ||
		c.L2TLBLatency != 10 || c.PageWalkers != 64 {
		t.Fatal("TLB setup wrong")
	}
	if c.PageSize != 4096 || c.PageFaultLatency != 28000 {
		t.Fatal("paging setup wrong (20us at 1.4GHz = 28000 cycles)")
	}
	if c.NoCBandwidthGBs != 1400 || c.NoCPortBytes() != 16 {
		t.Fatal("NoC setup wrong")
	}
	ht := c.Timing
	if ht.TRC != 24 || ht.TRCD != 7 || ht.TCL != 7 || ht.TFAW != 20 || ht.TRAS != 17 {
		t.Fatal("HBM timing wrong")
	}
	// 32 channels x 64 B x 350 MHz = 716.8 GB/s ~ 720 GB/s.
	gbps := float64(c.NumChannels) * float64(c.MemBusBytesPerMemCycle) * c.CoreClockGHz / float64(c.MemClockDiv)
	if gbps < 700 || gbps > 740 {
		t.Fatalf("memory bandwidth %.0f GB/s", gbps)
	}
}

func TestPartitionTopology(t *testing.T) {
	c := Baseline()
	if c.NumPartitions() != 32 || c.SMsPerPartitionActual() != 2 || c.SlicesPerPartitionActual() != 2 {
		t.Fatal("2:2:1 ratio broken")
	}
	if c.PartitionOfSM(0) != 0 || c.PartitionOfSM(63) != 31 {
		t.Fatal("SM partition map wrong")
	}
	if c.PartitionOfSlice(0) != 0 || c.PartitionOfSlice(63) != 31 {
		t.Fatal("slice partition map wrong")
	}
}

func TestNoCPortBytesVariants(t *testing.T) {
	c := Baseline()
	for _, tc := range []struct {
		gbs  float64
		want int
	}{{700, 8}, {1400, 16}, {2800, 32}, {5600, 64}} {
		v := c.WithNoC(tc.gbs)
		if got := v.NoCPortBytes(); got != tc.want {
			t.Errorf("NoC %.0f GB/s -> width %d, want %d", tc.gbs, got, tc.want)
		}
	}
}

func TestScalePreservesRatios(t *testing.T) {
	for _, f := range []float64{0.5, 2} {
		c := Baseline().Scale(f)
		if err := c.Validate(); err != nil {
			t.Fatalf("scale %v: %v", f, err)
		}
		if c.SMsPerPartitionActual() != 2 || c.SlicesPerPartitionActual() != 2 {
			t.Fatalf("scale %v broke the 2:2:1 ratio", f)
		}
		if c.NoCPortBytes() != 16 {
			t.Fatalf("scale %v changed per-port NoC width to %d", f, c.NoCPortBytes())
		}
	}
}

// scaledFields are the Config fields Scale multiplies by its factor: the
// component counts and the aggregate bandwidths of the links between them,
// so every count and bandwidth per SM stays what it was.
var scaledFields = []string{"NumSMs", "NumLLCSlices", "NumChannels", "NoCBandwidthGBs", "InterModuleGBs"}

// Why a smaller GPU keeps the value of each field Scale leaves alone.
const (
	choice     = "a choice, not a size"
	timing     = "a clock, latency or interval: a smaller GPU runs no slower"
	perSM      = "per SM: every SM keeps its own"
	perSlice   = "per LLC slice: Scale keeps per-slice capacity"
	perChannel = "per memory channel"
	perLink    = "one link's or port's width or buffer: the aggregate scales with the link count"
	footprint  = "translation is sized by the footprints, which do not scale"
)

// keptFields names every Config field Scale leaves alone, with its reason.
var keptFields = map[string]string{
	"Arch": choice, "Seed": choice, "AddressMap": choice, "Placement": choice,
	"LABThreshold": choice, "Replication": choice, "ColdStart": choice,
	"CoreClockGHz": timing, "MemClockDiv": timing, "L1Latency": timing,
	"L1TLBLatency": timing, "L2TLBLatency": timing, "PageWalkLatency": timing,
	"PageFaultLatency": timing, "LLCLatency": timing, "Timing": timing,
	"NoCLatency": timing, "LocalLinkLatency": timing, "MDREpoch": timing,
	"MDREvalDelay": timing, "MigrationInterval": timing,
	"WarpsPerSM": perSM, "SchedulersPerSM": perSM,
	"MaxCTAsPerSM": perSM, "L1Bytes": perSM, "L1Ways": perSM, "L1MSHRs": perSM,
	"L1TLBEntries":  perSM,
	"LLCSliceBytes": perSlice, "LLCWays": perSlice, "LLCMSHRs": perSlice,
	"MDRSampleSets": perSlice,
	"BanksPerChan":  perChannel, "MemQueueDepth": perChannel, "MemBusBytesPerMemCycle": perChannel,
	"NoCPortBuffer": perLink, "LocalLinkBytes": perLink, "LocalLinkBuffer": perLink,
	"L2TLBEntries": footprint, "L2TLBWays": footprint, "L2TLBPorts": footprint,
	"PageWalkers": footprint, "PageSize": footprint,
	"MigrationThreshold": "accesses to one page in one interval",
	"NumModules":         "Scale shrinks each module, not how many there are",
	"MaxCycles":          "a safety net, not a model parameter",
}

// TestScaleKeepsRatios holds Scale to what the scaled experiments assume:
// every field either scales with NumSMs or is kept, for a reason, at its
// full-size value. A field on neither list fails, so a new one must take a
// side. The MCM is the one base with inter-module links.
func TestScaleKeepsRatios(t *testing.T) {
	scaled := map[string]bool{}
	for _, name := range scaledFields {
		scaled[name] = true
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, kept := keptFields[name]; kept == scaled[name] {
			t.Errorf("field %s must be on exactly one of scaledFields and keptFields", name)
		}
	}
	bases := []struct {
		name string
		c    Config
	}{{"UBA", Baseline()}, {"NUBA", NUBABaseline()}, {"MCM", MCM(NUBA)}}
	for _, b := range bases {
		base := b.c
		for _, f := range []float64{0.25, 0.5, 1, 2} {
			c := base.Scale(f)
			bv, cv := reflect.ValueOf(base), reflect.ValueOf(c)
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				from, to := bv.Field(i), cv.Field(i)
				switch {
				case !scaled[name]:
					if !reflect.DeepEqual(from.Interface(), to.Interface()) {
						t.Errorf("%s ×%v: kept field %s moved %v → %v", b.name, f, name, from, to)
					}
				case from.CanInt():
					if want := int64(float64(from.Int()) * f); to.Int() != want {
						t.Errorf("%s ×%v: %s = %d, want %d", b.name, f, name, to.Int(), want)
					}
				default:
					if want := from.Float() * f; to.Float() != want {
						t.Errorf("%s ×%v: %s = %v, want %v", b.name, f, name, to.Float(), want)
					}
				}
			}
		}
	}
}

func TestWithPartitionPreservesCapacity(t *testing.T) {
	base := Baseline()
	total := base.NumLLCSlices * base.LLCSliceBytes
	for _, spp := range []int{1, 2, 4} {
		c := base.WithPartition(spp)
		if err := c.Validate(); err != nil {
			t.Fatalf("spp %d: %v", spp, err)
		}
		if c.NumLLCSlices*c.LLCSliceBytes != total {
			t.Fatalf("spp %d changed LLC capacity", spp)
		}
		if c.SlicesPerPartitionActual() != spp {
			t.Fatalf("spp %d not applied", spp)
		}
	}
}

func TestMCMConfig(t *testing.T) {
	c := MCM(NUBA)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSMs != 128 || c.NumModules != 4 || c.InterModuleGBs != 720 {
		t.Fatal("MCM geometry wrong")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := Baseline()
		mut(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.NumSMs = 0 }),
		mk(func(c *Config) { c.NumSMs = 63 }),
		mk(func(c *Config) { c.NumLLCSlices = 33 }),
		mk(func(c *Config) { c.PageSize = 3000 }),
		mk(func(c *Config) { c.MemClockDiv = 0 }),
		mk(func(c *Config) { c.LABThreshold = 0 }),
		mk(func(c *Config) { c.NumModules = 3 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateBoundsFixedCapacityStructures covers the sizes the memory
// path's fixed-capacity structures are built from: each bad value used to
// be a panic deep in a run (or, for the queue depth and the bank mask, a
// silently different scheduler; for the int16 indices a request carries,
// a silently wrapped index) and must be a named error instead.
func TestValidateBoundsFixedCapacityStructures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"baseline", func(*Config) {}, ""},
		{"one bank", func(c *Config) { c.BanksPerChan = 1 }, ""},
		{"64 banks", func(c *Config) { c.BanksPerChan = MaxBanksPerChan }, ""},
		{"no banks", func(c *Config) { c.BanksPerChan = 0 }, "BanksPerChan 0"},
		{"negative banks", func(c *Config) { c.BanksPerChan = -4 }, "BanksPerChan -4"},
		{"65 banks", func(c *Config) { c.BanksPerChan = 65 }, "BanksPerChan 65"},
		{"queue of one", func(c *Config) { c.MemQueueDepth = 1 }, ""},
		{"unbounded queue", func(c *Config) { c.MemQueueDepth = 0 }, "MemQueueDepth 0"},
		{"negative queue", func(c *Config) { c.MemQueueDepth = -1 }, "MemQueueDepth -1"},
		{"no L1 MSHRs", func(c *Config) { c.L1MSHRs = 0 }, "MSHR files"},
		{"negative L1 MSHRs", func(c *Config) { c.L1MSHRs = -2 }, "MSHR files"},
		{"no LLC MSHRs", func(c *Config) { c.LLCMSHRs = 0 }, "MSHR files"},
		{"one MSHR each", func(c *Config) { c.L1MSHRs, c.LLCMSHRs = 1, 1 }, ""},
		{"largest tables", func(c *Config) {
			c.MemQueueDepth, c.L1MSHRs, c.LLCMSHRs = maxTableEntries, maxTableEntries, maxTableEntries
		}, ""},
		{"no schedulers", func(c *Config) { c.SchedulersPerSM = 0 }, "SchedulersPerSM 0"},
		{"negative schedulers", func(c *Config) { c.SchedulersPerSM = -1 }, "SchedulersPerSM -1"},
		{"one scheduler, 64 warps", func(c *Config) { c.SchedulersPerSM = 1 }, ""},
		{"64 warps each", func(c *Config) { c.WarpsPerSM = 2 * MaxWarpsPerScheduler }, ""},
		{"65 warps on one scheduler", func(c *Config) { c.WarpsPerSM = 2*MaxWarpsPerScheduler + 1 }, "64-bit mask"},
		{"one scheduler, 65 warps", func(c *Config) { c.WarpsPerSM, c.SchedulersPerSM = 65, 1 }, "64-bit mask"},
		{"largest int16 indices", func(c *Config) {
			c.NumSMs, c.NumLLCSlices, c.NumChannels = math.MaxInt16, math.MaxInt16, math.MaxInt16
		}, ""},
		{"32768 SMs", func(c *Config) { c.NumSMs = math.MaxInt16 + 1 }, "NumSMs 32768"},
		{"32768 slices", func(c *Config) { c.NumLLCSlices = math.MaxInt16 + 1 }, "NumLLCSlices 32768"},
		{"32768 channels", func(c *Config) { c.NumChannels = math.MaxInt16 + 1 }, "NumChannels 32768"},
		{"32768 warps", func(c *Config) { c.WarpsPerSM, c.SchedulersPerSM = math.MaxInt16+1, 512 }, "WarpsPerSM 32768"},
	}
	for _, tc := range cases {
		c := Baseline()
		tc.mut(&c)
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name the field (want %q)", tc.name, err, tc.want)
		}
	}
}

// TestValidateRejectsWhatUsedToPanic: each row built a GPU that died with a
// runtime panic — a divide by zero or an index out of range in the module
// arithmetic, a constructor's own geometry panic, or inside Validate itself
// — or, the rows from "no core clock" on, one that panicked in the run or
// could only spin to MaxCycles, and must be a named error instead. The
// SM-side MCM row panicked nowhere: it built the two-half machine under
// another fingerprint, so a batch could simulate one machine twice.
func TestValidateRejectsWhatUsedToPanic(t *testing.T) {
	smSide := func(f float64) func(*Config) {
		return func(c *Config) { *c = Baseline().Scale(f).WithArch(UBASMSide) }
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"SM-side at scale 1/8", smSide(0.125), ""},
		{"SM-side, one channel", smSide(0.03125), "two halves"},
		{"SM-side, three SMs and slices", smSide(0.046875), "two halves"},
		{"MCM", func(c *Config) { *c = MCM(NUBA) }, ""},
		{"SM-side MCM", func(c *Config) { *c = MCM(UBASMSide) }, "NumModules 4"},
		{"slices and channels over three modules", func(c *Config) {
			c.NumSMs, c.NumLLCSlices, c.NumChannels, c.NumModules = 12, 8, 4, 3
		}, "across 3 modules"},
		{"no L1 ways", func(c *Config) { c.L1Ways = 0 }, "L1Ways 0"},
		{"no LLC ways", func(c *Config) { c.LLCWays = 0 }, "LLCWays 0"},
		{"no MDR sample sets", func(c *Config) { c.MDRSampleSets = 0 }, "MDRSampleSets 0"},
		{"no memory bus", func(c *Config) { c.MemBusBytesPerMemCycle = 0 }, "MemBusBytesPerMemCycle 0"},
		{"no L1 TLB", func(c *Config) { c.L1TLBEntries = 0 }, "L1TLBEntries 0"},
		{"L1 TLB not a multiple of its ways", func(c *Config) { c.L1TLBEntries = 12 }, "L1TLBEntries 12"},
		{"no L2 TLB", func(c *Config) { c.L2TLBEntries = 0 }, "L2TLBEntries 0"},
		{"no L2 TLB ways", func(c *Config) { c.L2TLBWays = 0 }, "L2TLBWays 0"},
		{"L2 TLB not a multiple of its ways", func(c *Config) { c.L2TLBWays = 7 }, "L2TLBWays 7"},
		{"NUBA without link width", func(c *Config) { *c = c.WithArch(NUBA); c.LocalLinkBytes = 0 }, "LocalLinkBytes 0"},
		{"NUBA link latency below zero", func(c *Config) { *c = c.WithArch(NUBA); c.LocalLinkLatency = -1 }, "LocalLinkLatency -1"},
		{"NUBA without link buffers", func(c *Config) { *c = c.WithArch(NUBA); c.LocalLinkBuffer = 0 }, "LocalLinkBuffer 0"},
		{"UBA never builds the local links", func(c *Config) { c.LocalLinkBytes, c.LocalLinkLatency, c.LocalLinkBuffer = 0, -1, 0 }, ""},
		{"NoC latency below zero", func(c *Config) { *c = c.WithArch(UBASMSide); c.NoCLatency = -1 }, "NoCLatency -1"},
		{"no NoC buffers", func(c *Config) { c.NoCPortBuffer = 0 }, "NoCPortBuffer 0"},
		{"no core clock", func(c *Config) { c.CoreClockGHz = 0 }, "CoreClockGHz 0"},
		{"no CTA slots", func(c *Config) { c.MaxCTAsPerSM = 0 }, "MaxCTAsPerSM 0"},
		{"no page walkers", func(c *Config) { c.PageWalkers = 0 }, "PageWalkers 0"},
		{"no L2 TLB ports", func(c *Config) { c.L2TLBPorts = 0 }, "L2TLBPorts 0"},
		{"migration scan every cycle", func(c *Config) { *c = c.WithArch(NUBA); c.Placement, c.MigrationInterval = Migration, 0 }, "MigrationInterval 0"},
		{"other placements never scan", func(c *Config) { c.MigrationInterval = 0 }, ""},
		{"no cycle budget", func(c *Config) { c.MaxCycles = 0 }, "MaxCycles 0"},
		{"memory queue too deep to allocate", func(c *Config) { c.MemQueueDepth = 1 << 40 }, "MemQueueDepth 1099511627776"},
		{"L1 MSHR table too large", func(c *Config) { c.L1MSHRs = maxTableEntries + 1 }, "L1MSHRs 4097"},
		{"LLC MSHR table too large", func(c *Config) { c.LLCMSHRs = 1 << 40 }, "LLCMSHRs 1099511627776"},
		// FuzzConfig found the first: a NaN NoC bandwidth gave the crossbar a
		// negative port width and New panicked. The rest are the same hole, a
		// bandwidth or clock that is zero, NaN or infinite.
		{"NaN NoC bandwidth", func(c *Config) { c.NoCBandwidthGBs = math.NaN() }, "NoCBandwidthGBs NaN"},
		{"infinite NoC bandwidth", func(c *Config) { c.NoCBandwidthGBs = math.Inf(1) }, "NoCBandwidthGBs +Inf"},
		{"no NoC bandwidth", func(c *Config) { c.NoCBandwidthGBs = 0 }, "NoCBandwidthGBs 0"},
		{"infinite core clock", func(c *Config) { c.CoreClockGHz = math.Inf(1) }, "CoreClockGHz +Inf"},
		{"MCM without inter-module bandwidth", func(c *Config) { *c = MCM(NUBA); c.InterModuleGBs = 0 }, "InterModuleGBs 0"},
		{"MCM with NaN inter-module bandwidth", func(c *Config) { *c = MCM(NUBA); c.InterModuleGBs = math.NaN() }, "InterModuleGBs NaN"},
		{"a monolithic GPU has no inter-module links", func(c *Config) { c.InterModuleGBs = math.NaN() }, ""},
		// These panicked nowhere: an enum out of range, a negative latency
		// or timing and an epoch below one each ran to the end without a
		// word. An Arch of 3 ran as the memory-side UBA; an LLCLatency of -5
		// ran NUBA's two-CTA launch in 1,280 cycles, not 1,792.
		{"Arch 3", func(c *Config) { c.Arch = 3 }, "Arch 3"},
		{"Arch -1", func(c *Config) { c.Arch = -1 }, "Arch -1"},
		{"Placement 9", func(c *Config) { c.Placement = 9 }, "Placement 9"},
		{"Replication 9", func(c *Config) { c.Replication = 9 }, "Replication 9"},
		{"AddressMap 9", func(c *Config) { c.AddressMap = 9 }, "AddressMap 9"},
		{"negative LLC latency", func(c *Config) { *c = c.WithArch(NUBA); c.LLCLatency = -5 }, "LLCLatency -5"},
		{"negative page walk", func(c *Config) { c.PageWalkLatency = -1 }, "PageWalkLatency -1"},
		{"negative MDR evaluation", func(c *Config) { c.MDREvalDelay = -1 }, "MDREvalDelay -1"},
		{"negative HBM timing", func(c *Config) { c.Timing.TRCD = -1 }, "TRCD:-1"},
		{"zero latencies", func(c *Config) { c.LLCLatency, c.L1Latency, c.Timing.TCL = 0, 0, 0 }, ""},
		{"no MDR epoch", func(c *Config) { c.MDREpoch = 0 }, "MDREpoch 0"},
		{"negative MDR epoch", func(c *Config) { *c = c.WithArch(NUBA); c.MDREpoch = -20000 }, "MDREpoch -20000"},
	}
	for _, tc := range cases {
		c := Baseline()
		tc.mut(&c)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = nil
					t.Errorf("%s: Validate panicked: %v", tc.name, r)
				}
			}()
			return c.Validate()
		}()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name the field (want %q)", tc.name, err, tc.want)
		}
	}
}

func TestArchPolicyDefaults(t *testing.T) {
	if n := Baseline().WithArch(NUBA); n.Placement != LAB || n.Replication != MDR {
		t.Fatal("NUBA defaults")
	}
	if u := NUBABaseline().WithArch(UBAMem); u.Placement != RoundRobin || u.Replication != NoRep {
		t.Fatal("UBA defaults")
	}
}

// perturb changes one struct field in place to a different valid-typed
// value, recursing into nested structs (HBMTiming). It returns false for
// kinds it cannot alter.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Struct:
		return perturb(v.Field(0))
	default:
		return false
	}
	return true
}

// TestFingerprintCoversEveryField guards the run-memoization key: editing
// ANY field of Config must change the fingerprint, so two configs that
// differ anywhere (LABThreshold, replication knobs, timing, ...) can never
// alias in the experiment engine's cache.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Baseline()
	ref := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base // fresh copy each field
		f := reflect.ValueOf(&c).Elem().Field(i)
		if !perturb(f) {
			t.Fatalf("field %s: unsupported kind %s in perturb helper — extend it", typ.Field(i).Name, f.Kind())
		}
		if got := c.Fingerprint(); got == ref {
			t.Errorf("fingerprint ignores field %s", typ.Field(i).Name)
		}
	}
}

func TestFingerprintStableForEqualConfigs(t *testing.T) {
	a, b := NUBABaseline(), NUBABaseline()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs must share a fingerprint")
	}
	c := NUBABaseline()
	c.LABThreshold = 0.95
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("LABThreshold edit must change the fingerprint")
	}
}

func TestStringers(t *testing.T) {
	if UBAMem.String() != "UBA-mem" || NUBA.String() != "NUBA" || UBASMSide.String() != "UBA-SM" {
		t.Fatal("arch names")
	}
	if LAB.String() != "LAB" || FirstTouch.String() != "first-touch" {
		t.Fatal("policy names")
	}
	if MDR.String() != "MDR" || NoRep.String() != "No-Rep" {
		t.Fatal("replication names")
	}
	if PAE.String() != "PAE" || FixedChannel.String() != "fixed-channel" {
		t.Fatal("mapping names")
	}
}

// checkSpellings asserts every value of one enum parses back from the
// name tables print and from its flag spelling, in any case, and that
// every spelling nubasim took before the tables existed still parses.
func checkSpellings[E interface {
	~int
	String() string
}](t *testing.T, names []spelling, parse func(string) (E, error), legacy string) {
	t.Helper()
	for v, n := range names {
		for _, s := range []string{n.Table, n.Flag, strings.ToUpper(n.Flag), strings.ToLower(n.Table)} {
			if got, err := parse(s); err != nil || got != E(v) || got.String() != n.Table {
				t.Errorf("parse(%q) = %v, %v; want %s", s, got, err, n.Table)
			}
		}
	}
	for _, s := range strings.Split(legacy, "|") {
		if _, err := parse(s); err != nil {
			t.Errorf("legacy spelling: %v", err)
		}
	}
}

// TestParseAcceptsWhatStringPrints pins the one-table-per-enum contract
// (the names themselves are TestStringers' and the goldens').
func TestParseAcceptsWhatStringPrints(t *testing.T) {
	checkSpellings(t, archNames[:], ParseArch, "uba|uba-mem|sm-side|uba-sm|nuba")
	checkSpellings(t, placementNames[:], ParsePlacement,
		"ft|first-touch|rr|round-robin|lab|migration|pagerep|page-replication")
	checkSpellings(t, replicationNames[:], ParseReplication, "none|no-rep|full|mdr")

	if _, err := ParseReplication("half"); err == nil || !strings.Contains(err.Error(), `"half"`) ||
		!strings.Contains(err.Error(), ReplicationUsage()) {
		t.Errorf("ParseReplication(half) = %v; want an error naming the value and the valid set", err)
	}
	if ArchUsage() != "uba | sm-side | nuba" || PlacementUsage() != "ft | rr | lab | migration | pagerep" ||
		ReplicationUsage() != "none | full | mdr" {
		t.Errorf("flag help moved: %q, %q, %q", ArchUsage(), PlacementUsage(), ReplicationUsage())
	}
	if Arch(9).String() != "Arch(9)" || PlacementPolicy(-1).String() != "PlacementPolicy(-1)" {
		t.Error("out-of-range values must still print their number")
	}
	// String sits under Config.Fingerprint's %+v, once per job of a sweep.
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = NUBA.String(), LAB.String(), FullRep.String()
	}); n != 0 {
		t.Errorf("String allocates %v objects per three calls, want 0", n)
	}
}

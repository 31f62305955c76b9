package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// fuzzInt maps a fuzzed int16 onto a knob. The two int16 extremes stand
// for MinInt16 and MaxInt16+1, the edges of the int16 indices a request
// carries; every other value falls in [-2, hi], small enough that no
// machine it builds runs out of memory.
func fuzzInt(v int16, hi int) int {
	switch v {
	case math.MinInt16:
		return math.MinInt16
	case math.MaxInt16:
		return math.MaxInt16 + 1
	}
	m := hi + 3
	return (int(v)%m+m)%m - 2
}

// fuzzFloat maps a fuzzed int16 onto a float knob: the extremes are NaN
// and +Inf, every other value v is v/scale.
func fuzzFloat(v int16, scale float64) float64 {
	switch v {
	case math.MinInt16:
		return math.NaN()
	case math.MaxInt16:
		return math.Inf(1)
	}
	return float64(v) / scale
}

func fuzzCycles(v int16, hi int) sim.Cycle { return sim.Cycle(fuzzInt(v, hi)) }

// fuzzKnobs are the Config fields FuzzConfig sets, one setter each.
var fuzzKnobs = []func(*config.Config, int16){
	func(c *config.Config, v int16) { c.Arch = config.Arch(fuzzInt(v, 3)) },
	func(c *config.Config, v int16) { c.Seed = uint64(v) },
	func(c *config.Config, v int16) { c.CoreClockGHz = fuzzFloat(v, 16) },
	func(c *config.Config, v int16) { c.MemClockDiv = fuzzInt(v, 8) },
	func(c *config.Config, v int16) { c.NumSMs = fuzzInt(v, 32) },
	func(c *config.Config, v int16) { c.WarpsPerSM = fuzzInt(v, 128) },
	func(c *config.Config, v int16) { c.SchedulersPerSM = fuzzInt(v, 8) },
	func(c *config.Config, v int16) { c.MaxCTAsPerSM = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.L1Bytes = sim.LineSize * fuzzInt(v, 768) },
	func(c *config.Config, v int16) { c.L1Ways = fuzzInt(v, 16) },
	func(c *config.Config, v int16) { c.L1MSHRs = fuzzInt(v, 256) },
	func(c *config.Config, v int16) { c.L1Latency = fuzzCycles(v, 64) },
	func(c *config.Config, v int16) { c.L1TLBEntries = fuzzInt(v, 256) },
	func(c *config.Config, v int16) { c.L1TLBLatency = fuzzCycles(v, 16) },
	func(c *config.Config, v int16) { c.L2TLBEntries = fuzzInt(v, 1024) },
	func(c *config.Config, v int16) { c.L2TLBWays = fuzzInt(v, 32) },
	func(c *config.Config, v int16) { c.L2TLBLatency = fuzzCycles(v, 32) },
	func(c *config.Config, v int16) { c.L2TLBPorts = fuzzInt(v, 8) },
	func(c *config.Config, v int16) { c.PageWalkers = fuzzInt(v, 128) },
	func(c *config.Config, v int16) { c.PageWalkLatency = fuzzCycles(v, 512) },
	func(c *config.Config, v int16) { c.PageFaultLatency = fuzzCycles(v, 4096) },
	func(c *config.Config, v int16) {
		if n := fuzzInt(v, 30); n < 0 {
			c.PageSize = uint64(-n - 1) // 0, 1 and some that are not powers of two
		} else {
			c.PageSize = 1 << n
		}
	},
	func(c *config.Config, v int16) { c.NumLLCSlices = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.LLCSliceBytes = sim.LineSize * fuzzInt(v, 1536) },
	func(c *config.Config, v int16) { c.LLCWays = fuzzInt(v, 32) },
	func(c *config.Config, v int16) { c.LLCLatency = fuzzCycles(v, 256) },
	func(c *config.Config, v int16) { c.LLCMSHRs = fuzzInt(v, 256) },
	func(c *config.Config, v int16) { c.NumChannels = fuzzInt(v, 32) },
	func(c *config.Config, v int16) { c.BanksPerChan = fuzzInt(v, 72) },
	func(c *config.Config, v int16) { c.MemQueueDepth = fuzzInt(v, 128) },
	func(c *config.Config, v int16) { c.Timing.TRC = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRCD = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRP = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TCL = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TWL = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRAS = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRRDL = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRRDS = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TFAW = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TRTP = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TCCDL = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TCCDS = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TWTRL = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TWTRS = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.Timing.TWR = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.MemBusBytesPerMemCycle = fuzzInt(v, 128) },
	func(c *config.Config, v int16) { c.NoCBandwidthGBs = fuzzFloat(v, 1) },
	func(c *config.Config, v int16) { c.NoCLatency = fuzzCycles(v, 64) },
	func(c *config.Config, v int16) { c.NoCPortBuffer = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.LocalLinkBytes = fuzzInt(v, 64) },
	func(c *config.Config, v int16) { c.LocalLinkLatency = fuzzCycles(v, 16) },
	func(c *config.Config, v int16) { c.LocalLinkBuffer = fuzzInt(v, 32) },
	func(c *config.Config, v int16) { c.AddressMap = config.AddressMapping(fuzzInt(v, 2)) },
	func(c *config.Config, v int16) { c.Placement = config.PlacementPolicy(fuzzInt(v, 5)) },
	func(c *config.Config, v int16) { c.LABThreshold = fuzzFloat(v, 64) },
	func(c *config.Config, v int16) { c.Replication = config.ReplicationPolicy(fuzzInt(v, 3)) },
	func(c *config.Config, v int16) { c.MDREpoch = fuzzCycles(v, 4096) },
	func(c *config.Config, v int16) { c.MDREvalDelay = fuzzCycles(v, 256) },
	func(c *config.Config, v int16) { c.MDRSampleSets = fuzzInt(v, 16) },
	func(c *config.Config, v int16) { c.MigrationInterval = fuzzCycles(v, 4096) },
	func(c *config.Config, v int16) { c.MigrationThreshold = fuzzInt(v, 128) },
	func(c *config.Config, v int16) { c.NumModules = fuzzInt(v, 8) },
	func(c *config.Config, v int16) { c.InterModuleGBs = fuzzFloat(v, 1) },
	func(c *config.Config, v int16) { c.ColdStart = v&1 != 0 },
	func(c *config.Config, v int16) { c.MaxCycles = int64(fuzzInt(v, 1<<15)) },
}

// fuzzConfig is the Config a FuzzConfig input describes: base picks one of
// the three tinyConfig architectures or the MCM GPU, and each 3-byte
// record of knobs sets one field, a knob index and a little-endian int16.
func fuzzConfig(base uint8, knobs []byte) config.Config {
	var c config.Config
	if base%4 == 3 {
		c = config.MCM(config.NUBA).Scale(0.25)
	} else {
		c = tinyConfig(config.Arch(base % 4))
	}
	c.MaxCycles = 200_000
	for ; len(knobs) >= 3; knobs = knobs[3:] {
		set := fuzzKnobs[int(knobs[0])%len(fuzzKnobs)]
		set(&c, int16(binary.LittleEndian.Uint16(knobs[1:])))
	}
	return c
}

// FuzzConfig holds Validate to what the simulator needs: any Config it
// accepts builds a GPU with New and runs a two-CTA tinyStream launch to an
// end that is clean, a *HangError or a MaxCycles stop, and never panics.
// The seeds are the three tinyConfig architectures and the MCM GPU.
func FuzzConfig(f *testing.F) {
	for base := range uint8(4) {
		f.Add(base, []byte{})
	}
	f.Fuzz(func(t *testing.T, base uint8, knobs []byte) {
		cfg := fuzzConfig(base, knobs)
		if cfg.Validate() != nil {
			return
		}
		g, err := New(cfg)
		if err != nil {
			t.Fatalf("Validate accepts a Config that New refuses: %v\n%s", err, cfg.Fingerprint())
		}
		err = g.RunProgram([]*kir.Launch{tinyLaunch(t, g, 2, 2)})
		var hang *HangError
		if err != nil && !errors.As(err, &hang) && !g.HitMaxCycles() {
			t.Fatalf("run ended in an untyped error: %v\n%s", err, cfg.Fingerprint())
		}
	})
}

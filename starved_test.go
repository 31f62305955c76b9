package nuba

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
)

var starvedAll = flag.Bool("starved.all", false,
	"TestStarvedMachine: run the whole matrix (make stress), not the tier-1 subset")

// starved is one resource squeeze: every bounded resource Config.Validate
// accepts at one entry, one at a time, then all of them at once. The LLC's
// MSHR file is also tried at two entries, the fewest that let a replica
// slice hold a forward at all.
type starved struct {
	name string
	set  func(*Config)
}

var starvedResources = []starved{
	{"none", func(*Config) {}},
	{"LLCMSHRs=1", func(c *Config) { c.LLCMSHRs = 1 }},
	{"LLCMSHRs=2", func(c *Config) { c.LLCMSHRs = 2 }},
	{"L1MSHRs=1", func(c *Config) { c.L1MSHRs = 1 }},
	{"MemQueueDepth=1", func(c *Config) { c.MemQueueDepth = 1 }},
	{"NoCPortBuffer=1", func(c *Config) { c.NoCPortBuffer = 1 }},
	{"LocalLinkBuffer=1", func(c *Config) { c.LocalLinkBuffer = 1 }},
	{"PageWalkers=1", func(c *Config) { c.PageWalkers = 1 }},
	{"all", func(c *Config) {
		c.LLCMSHRs, c.L1MSHRs, c.MemQueueDepth = 1, 1, 1
		c.NoCPortBuffer, c.LocalLinkBuffer, c.PageWalkers = 1, 1, 1
	}},
}

// starvedArchs returns the matrix's machines by label: NUBA under every
// replication and placement policy, both UBAs, and the four-module MCM of
// each architecture.
func starvedArchs() ([]string, map[string]Config) {
	var labels []string
	cfgs := map[string]Config{}
	add := func(label string, c Config) {
		labels = append(labels, label)
		cfgs[label] = c
	}
	for _, rep := range []ReplicationPolicy{NoRep, FullRep, MDR} {
		for _, pl := range []PlacementPolicy{LAB, FirstTouch, RoundRobin} {
			c := NUBAConfig()
			c.Replication, c.Placement = rep, pl
			add(fmt.Sprintf("NUBA-%v-%v", rep, pl), c)
		}
	}
	add("UBA-mem", Baseline())
	add("UBA-SM", SMSideConfig())
	add("MCM-NUBA", MCMConfig(NUBA))
	add("MCM-UBA", MCMConfig(UBAMem))
	return labels, cfgs
}

// TestStarvedMachine runs benchmarks on machines with their bounded
// resources at the minimum Config.Validate accepts, where a waits-for
// cycle needs the fewest requests to close: any *HangError fails, naming
// the configuration and quoting the report. Runs stop at 256 Ki cycles,
// which a deadlock reports long before (every wake hint is Never at the
// first batch boundary after it). Tier-1 runs the replicating NUBA rows
// with a starved LLC MSHR file on three benchmarks — the rows the
// replica-forward deadlock hung — and -starved.all (make stress) runs the
// whole product on more benchmarks.
func TestStarvedMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	labels, cfgs := starvedArchs()
	resources, benches := starvedResources, []string{"AN", "BICG", "LBM"}
	if *starvedAll {
		benches = append(benches, "BP", "NW", "SGEMM", "BH", "MVT")
	} else {
		labels = []string{"NUBA-Full-Rep-LAB", "NUBA-Full-Rep-round-robin", "NUBA-MDR-LAB", "NUBA-MDR-round-robin"}
		resources = []starved{starvedResources[1], starvedResources[2], starvedResources[len(starvedResources)-1]}
	}
	for _, label := range labels {
		for _, r := range resources {
			cfg := cfgs[label].Scale(0.125)
			cfg.MaxCycles = 256 * 1024
			r.set(&cfg)
			for _, abbr := range benches {
				b, err := BenchmarkByAbbr(abbr)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(label+"/"+r.name+"/"+abbr, func(t *testing.T) {
					t.Parallel()
					_, err := Run(context.Background(), cfg, b)
					var he *HangError
					switch {
					case errors.As(err, &he):
						t.Errorf("%s on %s with %s starved: %v\n%s", abbr, cfg.Name(), r.name, err, he.Report.String())
					case err != nil && !strings.Contains(err.Error(), "exceeded MaxCycles"):
						t.Errorf("%s on %s with %s starved: %v", abbr, cfg.Name(), r.name, err)
					}
				})
			}
		}
	}
}

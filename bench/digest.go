package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"github.com/nuba-gpu/nuba"
)

// statsDigest is FNV-1a over every field of Stats, name and value, in
// declaration order: two runs share a digest exactly when they share
// every simulated statistic.
func statsDigest(st *nuba.Stats) uint64 {
	h := fnv.New64a()
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			fmt.Fprintf(h, "%s=%d;", name, f.Int())
		case reflect.Float64:
			fmt.Fprintf(h, "%s=%016x;", name, math.Float64bits(f.Float()))
		default:
			panic(fmt.Sprintf("bench: Stats.%s has kind %s; teach statsDigest about it", name, f.Kind()))
		}
	}
	return h.Sum64()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterUnits names every modelled-component counter and its unit. They
// are simulated time — exact, identical on every run of one commit.
var counterUnits = map[string]string{
	"core.sim_cycles":              "cycles",
	"core.sim_ipc":                 "1/cycle",
	"core.stats_digest":            "fnv53",
	"smcore.warp_instrs":           "count",
	"smcore.l1_hit_rate":           "fraction",
	"smcore.mem_latency_cycles":    "cycles",
	"llc.accesses":                 "count",
	"llc.hit_rate":                 "fraction",
	"llc.remote_share":             "fraction",
	"llc.replica_share":            "fraction",
	"noc.bytes":                    "bytes",
	"noc.flits":                    "cycles",
	"sim.local_link_bytes":         "bytes",
	"dram.bursts":                  "count",
	"dram.row_hit_rate":            "fraction",
	"vm.tlb_miss_rate":             "fraction",
	"vm.page_walks":                "count",
	"mdr.epochs_replicating_share": "fraction",
	"driver.page_faults":           "count",
	"fig7_gap_pts":                 "pts",
}

// counters derives the modelled-component counters of one operation. The
// sweep exposes only cycles and instructions per job (experiments.Event),
// so its other counters read 0 and its digest covers the rendered
// reports; fig7_gap_pts reads -1 where the workload has no fig7 report.
func counters(o outcome) map[string]float64 {
	c := make(map[string]float64, len(counterUnits))
	for name := range counterUnits {
		c[name] = 0
	}
	c["core.sim_cycles"] = float64(o.cycles)
	c["core.sim_ipc"] = ratio(o.instrs, o.cycles)
	c["smcore.warp_instrs"] = float64(o.instrs)
	// A JSON number holds 53 bits exactly; the full digest is in the
	// table on standard error and in the result file.
	c["core.stats_digest"] = float64(o.digest >> 11)
	c["fig7_gap_pts"] = o.gap
	st := o.stats
	if st == nil {
		return c
	}
	serviced := st.LocalAccesses + st.RemoteAccesses
	c["smcore.l1_hit_rate"] = ratio(st.L1Hits, st.L1Accesses)
	c["smcore.mem_latency_cycles"] = st.AvgMemLatency()
	c["llc.accesses"] = float64(st.LLCAccesses)
	c["llc.hit_rate"] = st.LLCHitRate()
	c["llc.remote_share"] = ratio(st.RemoteAccesses, serviced)
	c["llc.replica_share"] = ratio(st.ReplicatedAccesses, serviced)
	c["noc.bytes"] = float64(st.NoCBytes)
	c["noc.flits"] = float64(st.NoCFlits)
	c["sim.local_link_bytes"] = float64(st.LocalLinkBytes)
	c["dram.bursts"] = float64(st.DRAMReads + st.DRAMWrites)
	c["dram.row_hit_rate"] = ratio(st.DRAMRowHits, st.DRAMRowHits+st.DRAMRowMisses)
	c["vm.tlb_miss_rate"] = ratio(st.TLBMisses, st.TLBAccesses)
	c["vm.page_walks"] = float64(st.PageWalks)
	c["mdr.epochs_replicating_share"] = ratio(st.MDREpochsReplicating, st.MDRDecisions)
	c["driver.page_faults"] = float64(st.PageFaults)
	return c
}

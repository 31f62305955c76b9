package experiments

import (
	"fmt"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Each experiment below is a Configs function, which states the
// experiment's configurations once, and a renderer, which reads row[j] —
// the run of one benchmark on the j-th declared configuration.

// table2 prints the suite with the paper's and the scaled footprints.
func table2(v *view) (figure, error) {
	t := &metrics.Table{Header: []string{"Benchmark", "Abbr", "Sharing", "Paper MB/RO", "Sim MB", "Launches"}}
	for _, b := range v.benches {
		var total uint64
		n := 0
		alloc := func(size uint64) uint64 {
			total += size
			n++
			return uint64(n) << 40
		}
		launches, err := b.Build(alloc)
		if err != nil {
			return figure{}, fmt.Errorf("%s: %w", b.Abbr, err)
		}
		t.AddRow(b.Name, b.Abbr, class(b),
			fmt.Sprintf("%.0f / %.2f", b.PaperMB, b.PaperROMB),
			fmt.Sprintf("%.2f MB", float64(total)/workload.MB), fmt.Sprintf("%d", len(launches)))
	}
	return figure{table: t}, nil
}

func fig3Configs() []nuba.Config { return []nuba.Config{nuba.Baseline()} }

// fig3 reports the page sharing histogram per benchmark on the baseline
// UBA GPU, as in Figure 3.
func fig3(v *view) (figure, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "Pages", "1 SM", "2-10", "11-25", ">25", "Shared%"}}
	for i, b := range v.benches {
		res := v.res[i][0]
		one, two, eleven, over := res.Sharing.Buckets()
		t.AddRow(b.Abbr, class(b), fmt.Sprintf("%d", res.Sharing.Pages()),
			f2(one), f2(two), f2(eleven), f2(over), fmt.Sprintf("%.1f%%", res.Sharing.SharedFraction()*100))
	}
	return figure{table: t}, nil
}

// The four headline iso-resource configurations of Section 7, shared by
// fig7/8/9/13.
const (
	isoNUBA = iota
	isoNoRep
	isoUBASM
	isoUBAMem
)

func isoConfigs() []nuba.Config {
	noRep := nuba.NUBAConfig()
	noRep.Replication = nuba.NoRep
	return []nuba.Config{
		isoNUBA:   nuba.NUBAConfig(),
		isoNoRep:  noRep,
		isoUBASM:  nuba.SMSideConfig(),
		isoUBAMem: nuba.Baseline(),
	}
}

// fig7 reports speedup of NUBA-No-Rep and NUBA over the memory-side UBA.
func fig7(v *view) (figure, error) {
	f := figure{
		table: &metrics.Table{Header: []string{"Bench", "Class", "UBA-SM", "NUBA-No-Rep", "NUBA"}},
		chart: &metrics.BarChart{Title: "NUBA speedup over UBA (%)", Width: 50},
	}
	for i, b := range v.benches {
		row := v.res[i]
		base := row[isoUBAMem]
		nb := nuba.Speedup(row[isoNUBA], base)
		f.table.AddRow(b.Abbr, class(b), gain(nuba.Speedup(row[isoUBASM], base)), gain(nuba.Speedup(row[isoNoRep], base)), gain(nb))
		f.chart.Add(b.Abbr, (nb-1)*100)
	}
	f.group("NUBA-No-Rep vs UBA", v, isoNoRep, isoUBAMem)
	f.group("NUBA        vs UBA", v, isoNUBA, isoUBAMem)
	f.line("%s\n", paper("NUBA +30.4% low, +15.1% high, +23.1% overall vs memory-side UBA"))
	return f, nil
}

// fig8 reports the perceived bandwidth in replies per cycle.
func fig8(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "UBA-mem", "NUBA-No-Rep", "NUBA", "Gain"}}}
	var gains []float64
	for i, b := range v.benches {
		row := v.res[i]
		u := row[isoUBAMem].Stats.RepliesPerCycle()
		nr := row[isoNoRep].Stats.RepliesPerCycle()
		nb := row[isoNUBA].Stats.RepliesPerCycle()
		g := 1.0
		if u > 0 {
			g = nb / u
		}
		gains = append(gains, g)
		f.table.AddRow(b.Abbr, f3(u), f3(nr), f3(nb), gain(g))
	}
	f.line("harmonic-mean perceived-bandwidth gain: %s %s\n", f.add("gain", hmean(gains), improvement), paper("+38.9%"))
	return f, nil
}

// fig9 reports the L1 miss service breakdown.
func fig9(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "UBA local", "NoRep local", "NUBA local", "NUBA replica"}}}
	var localSum float64
	for i, b := range v.benches {
		u, nr, nb := v.res[i][isoUBAMem].Stats, v.res[i][isoNoRep].Stats, v.res[i][isoNUBA].Stats
		repFrac := 0.0
		if tot := nb.LocalAccesses + nb.RemoteAccesses; tot > 0 {
			repFrac = float64(nb.ReplicatedAccesses) / float64(tot)
		}
		localSum += nb.LocalFraction()
		f.table.AddRow(b.Abbr, f2(u.LocalFraction()), f2(nr.LocalFraction()), f2(nb.LocalFraction()), f2(repFrac))
	}
	f.line("mean NUBA local fraction: %s %s\n", f.add("NUBA local", 100*localSum/float64(len(v.benches)), "%.1f%%"),
		paper("63.9% of L1 misses local"))
	return f, nil
}

// fig10Configs is the UBA baseline followed by the Figure 10 sweep: each
// architecture at each NoC bandwidth.
func fig10Configs() []nuba.Config {
	cfgs := []nuba.Config{nuba.Baseline()}
	for _, gbs := range []float64{700, 1400, 2800, 5600} {
		cfgs = append(cfgs,
			nuba.Baseline().WithNoC(gbs),
			nuba.SMSideConfig().WithNoC(gbs),
			nuba.NUBAConfig().WithNoC(gbs))
	}
	return cfgs
}

// fig10 sweeps the NoC bandwidth and reports performance vs NoC power.
func fig10(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Config", "NoC GB/s", "Perf vs UBA@1400", "NoC power (W)"}}}
	for j := 1; j < len(v.cfgs); j++ {
		cfg := &v.cfgs[j]
		var power float64
		for _, row := range v.res {
			power += row[j].Stats.NoCPowerW(cfg.CoreClockGHz)
		}
		power /= float64(len(v.benches))
		name := fmt.Sprintf("%s@%.0f", cfg.Arch, cfg.NoCBandwidthGBs)
		f.table.AddRow(cfg.Arch.String(), fmt.Sprintf("%.0f", cfg.NoCBandwidthGBs),
			f.add(name+" perf", hmean(v.speedups(j, 0)), improvement).String(),
			f.add(name+" power", power, "%.2f").String())
	}
	f.line("%s\n", paper("NUBA@700 ~= UBA@5600 performance at 12.1x / 9.4x lower NoC power"))
	return f, nil
}

// placed is UBA, then NUBA under each of the page placement policies.
func placed(policies ...nuba.PlacementPolicy) []nuba.Config {
	cfgs := []nuba.Config{nuba.Baseline()}
	for _, p := range policies {
		cfg := nuba.NUBAConfig()
		cfg.Placement = p
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func fig11Configs() []nuba.Config { return placed(nuba.FirstTouch, nuba.RoundRobin, nuba.LAB) }

// fig11 compares page allocation policies on NUBA (with MDR active, as
// in the paper's Figure 11).
func fig11(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "Class", "FT vs UBA", "RR vs UBA", "LAB vs UBA"}}}
	for i, b := range v.benches {
		ub, ft, rr, lab := v.res[i][0], v.res[i][1], v.res[i][2], v.res[i][3]
		f.table.AddRow(b.Abbr, class(b), gain(nuba.Speedup(ft, ub)), gain(nuba.Speedup(rr, ub)), gain(nuba.Speedup(lab, ub)))
	}
	f.line("harmonic means vs UBA: FT %s  RR %s  LAB %s\n", f.add("FT", hmean(v.speedups(1, 0)), improvement),
		f.add("RR", hmean(v.speedups(2, 0)), improvement), f.add("LAB", hmean(v.speedups(3, 0)), improvement))
	f.line("%s\n", paper("LAB +14.8% vs UBA; LAB beats FT by 88.9% and RR by 14.3% on NUBA"))
	return f, nil
}

// fig12Configs is NUBA (LAB placement) under no, full and model-driven
// replication.
func fig12Configs() []nuba.Config {
	noRep := nuba.NUBAConfig()
	noRep.Replication = nuba.NoRep
	fullRep := nuba.NUBAConfig()
	fullRep.Replication = nuba.FullRep
	return []nuba.Config{noRep, fullRep, nuba.NUBAConfig()}
}

// fig12 compares replication policies on NUBA with LAB placement.
func fig12(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "Class", "Full-Rep", "MDR", "LLCmiss No/Full"}}}
	for i, b := range v.benches {
		rn, rf, rm := v.res[i][0], v.res[i][1], v.res[i][2]
		f.table.AddRow(b.Abbr, class(b), gain(nuba.Speedup(rf, rn)), gain(nuba.Speedup(rm, rn)),
			fmt.Sprintf("%.2f/%.2f", 1-rn.Stats.LLCHitRate(), 1-rf.Stats.LLCHitRate()))
	}
	f.line("harmonic means vs No-Rep: Full-Rep %s  MDR %s\n",
		f.add("Full-Rep", hmean(v.speedups(1, 0)), improvement), f.add("MDR", hmean(v.speedups(2, 0)), improvement))
	f.line("%s\n", paper("MDR +15.1% vs No-Rep; Full-Rep helps 2MM/AN/SN/RN, hurts SC/BT/GRU/BICG"))
	return f, nil
}

// fig13 reports the energy breakdown.
func fig13(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "UBA NoC%", "NUBA NoC%", "NoC energy vs UBA", "Total vs UBA"}}}
	var mn, mt float64
	for i, b := range v.benches {
		u, nb := v.res[i][isoUBAMem].Stats, v.res[i][isoNUBA].Stats
		noc, tot := nb.NoCEnergyNJ/u.NoCEnergyNJ, nb.TotalEnergyNJ()/u.TotalEnergyNJ()
		mn, mt = mn+noc, mt+tot
		f.table.AddRow(b.Abbr, f2(u.NoCEnergyNJ/u.TotalEnergyNJ()*100), f2(nb.NoCEnergyNJ/nb.TotalEnergyNJ()*100),
			gain(noc), gain(tot))
	}
	n := float64(len(v.benches))
	f.line("mean NUBA/UBA: NoC energy %sx, total energy %sx %s\n", f.add("NoC energy", mn/n, "%.2f"),
		f.add("total energy", mt/n, "%.2f"), paper("NoC -54.5%, total -16.0%"))
	return f, nil
}

// sensitivity is one Figure 14 sweep: UBA versus NUBA under each of a
// list of configuration transforms, one table row per transform.
type sensitivity struct {
	label    string
	variants []variant
}

type variant struct {
	name  string
	apply func(nuba.Config) nuba.Config
}

func same(c nuba.Config) nuba.Config { return c }

var (
	fig14Size = sensitivity{"GPU size", []variant{
		{"0.5x (32 SMs)", func(c nuba.Config) nuba.Config { return c.Scale(0.5) }},
		{"1x (64 SMs)", same},
		{"2x (128 SMs)", func(c nuba.Config) nuba.Config { return c.Scale(2) }},
	}}
	fig14Partition = sensitivity{"Slices/partition", []variant{
		{"1 slice", func(c nuba.Config) nuba.Config { return c.WithPartition(1) }},
		{"2 slices", same},
		{"4 slices", func(c nuba.Config) nuba.Config { return c.WithPartition(4) }},
	}}
	fig14LLC = sensitivity{"LLC capacity", []variant{
		{"0.5x (3 MB)", func(c nuba.Config) nuba.Config { return c.WithLLCCapacity(0.5) }},
		{"1x (6 MB)", same},
		{"2x (12 MB)", func(c nuba.Config) nuba.Config { return c.WithLLCCapacity(2) }},
	}}
	fig14Page = sensitivity{"Page size", []variant{
		{"2 MB", func(c nuba.Config) nuba.Config { c.PageSize = 2 << 20; return c }},
		{"4 KB", same},
	}}
)

// configs is each variant's UBA then NUBA configuration, in row order.
func (s sensitivity) configs() []nuba.Config {
	var cfgs []nuba.Config
	for _, vr := range s.variants {
		cfgs = append(cfgs, vr.apply(nuba.Baseline()), vr.apply(nuba.NUBAConfig()))
	}
	return cfgs
}

// render reports the harmonic-mean NUBA improvement under each variant.
func (s sensitivity) render(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{s.label, "NUBA vs UBA (low)", "(high)", "(all)"}}}
	for k, vr := range s.variants {
		low, high, all := f.classes(vr.name, v, 2*k+1, 2*k)
		f.table.AddRow(vr.name, low.String(), high.String(), all.String())
	}
	return f, nil
}

// fig14AddrMapConfigs is the UBA+PAE versus NUBA pair.
func fig14AddrMapConfigs() []nuba.Config {
	ubaPAE := nuba.Baseline()
	ubaPAE.AddressMap = nuba.PAE
	return []nuba.Config{ubaPAE, nuba.NUBAConfig()}
}

// fig14AddrMap compares NUBA (fixed-channel) against UBA with PAE.
func fig14AddrMap(v *view) (figure, error) {
	var f figure
	f.group("NUBA vs UBA+PAE", v, 1, 0)
	f.line("%s\n", paper("+19.7% average improvement over UBA with PAE"))
	return f, nil
}

// fig14LABConfigs is the UBA baseline followed by one NUBA(No-Rep)
// configuration per swept LAB threshold.
func fig14LABConfigs() []nuba.Config {
	cfgs := []nuba.Config{nuba.Baseline()}
	for _, th := range []float64{0.8, 0.9, 0.95} {
		cfg := nuba.NUBAConfig()
		cfg.Replication = nuba.NoRep
		cfg.LABThreshold = th
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func fig14LAB(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"LAB threshold", "vs UBA (low)", "(high)", "(all)"}}}
	for j := 1; j < len(v.cfgs); j++ {
		name := fmt.Sprintf("%.2f", v.cfgs[j].LABThreshold)
		low, high, all := f.classes(name, v, j, 0)
		f.table.AddRow(name, low.String(), high.String(), all.String())
	}
	f.line("%s\n", paper("0.8 -> +14.5%, 0.9 -> +14.8%, 0.95 -> +13.1% vs UBA"))
	return f, nil
}

// fig16Configs is the monolithic 2x GPU as UBA and NUBA, then the
// four-module MCM as UBA and NUBA.
func fig16Configs() []nuba.Config {
	return []nuba.Config{
		nuba.Baseline().Scale(2), nuba.NUBAConfig().Scale(2),
		nuba.MCMConfig(nuba.UBAMem), nuba.MCMConfig(nuba.NUBA),
	}
}

// fig16 compares UBA and NUBA in the four-module MCM configuration
// against the monolithic 2x GPU.
func fig16(v *view) (figure, error) {
	var f figure
	f.group("monolithic 2x NUBA vs UBA", v, 1, 0)
	f.group("MCM 4-module NUBA vs UBA ", v, 3, 2)
	f.line("%s\n", paper("+30.1% monolithic vs +40.0% MCM"))
	return f, nil
}

// altConfigs is LAB and the §7.6 placement alternatives.
func altConfigs() []nuba.Config { return placed(nuba.LAB, nuba.Migration, nuba.PageReplication) }

// altPlacement compares LAB against the §7.6 alternatives.
func altPlacement(v *view) (figure, error) {
	f := figure{table: &metrics.Table{Header: []string{"Bench", "Class", "LAB", "Migration", "PageRep", "Migrations", "PageReplicas"}}}
	for i, b := range v.benches {
		ub, rl, rm, rp := v.res[i][0], v.res[i][1], v.res[i][2], v.res[i][3]
		f.table.AddRow(b.Abbr, class(b), gain(nuba.Speedup(rl, ub)), gain(nuba.Speedup(rm, ub)), gain(nuba.Speedup(rp, ub)),
			fmt.Sprintf("%d", rm.Stats.PageMigrations), fmt.Sprintf("%d", rp.Stats.PageReplicas))
	}
	f.line("%s\n", paper("migration/replication ~+26% on low-sharing but up to -80.4% on high-sharing"))
	return f, nil
}

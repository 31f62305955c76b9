package experiments

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/energy"
	"github.com/nuba-gpu/nuba/internal/metrics"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// Each experiment below is a Configs function, which states the
// experiment's configurations once, and a renderer, which reads row[j] —
// the run of one benchmark on the j-th declared configuration.

// table2 prints the suite with the paper's and the scaled footprints.
func table2(v *view) (string, error) {
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
			return "", fmt.Errorf("%s: %w", b.Abbr, err)
		}
		t.AddRow(b.Name, b.Abbr, class(b),
			fmt.Sprintf("%.0f / %.2f", b.PaperMB, b.PaperROMB),
			mbs(float64(total)/workload.MB), fmt.Sprintf("%d", len(launches)))
	}
	return t.String(), nil
}

func fig3Configs() []nuba.Config {
	return []nuba.Config{nuba.Baseline()}
}

// fig3 reports the page sharing histogram per benchmark on the baseline
// UBA GPU, as in Figure 3.
func fig3(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "Pages", "1 SM", "2-10", "11-25", ">25", "Shared%"}}
	for i, b := range v.benches {
		res := v.res[i][0]
		one, two, eleven, over := res.Sharing.Buckets()
		t.AddRow(b.Abbr, class(b), fmt.Sprintf("%d", res.Sharing.Pages()),
			f2(one), f2(two), f2(eleven), f2(over), fmt.Sprintf("%.1f%%", res.Sharing.SharedFraction()*100))
	}
	return t.String(), nil
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
func fig7(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "UBA-SM", "NUBA-No-Rep", "NUBA"}}
	chart := &metrics.BarChart{Title: "NUBA speedup over UBA (%)", Width: 50}
	var noRep, full byClass
	for i, b := range v.benches {
		row := v.res[i]
		base := row[isoUBAMem]
		sm := speedupPct(row[isoUBASM], base)
		nr := speedupPct(row[isoNoRep], base)
		nb := speedupPct(row[isoNUBA], base)
		noRep.add(b, 1+nr/100)
		full.add(b, 1+nb/100)
		t.AddRow(b.Abbr, class(b), pct(sm), pct(nr), pct(nb))
		chart.Add(b.Abbr, nb)
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	bld.WriteByte('\n')
	bld.WriteString(chart.String())
	groupSummary(&bld, "NUBA-No-Rep vs UBA", &noRep)
	groupSummary(&bld, "NUBA        vs UBA", &full)
	bld.WriteString("(paper: NUBA +30.4% low, +15.1% high, +23.1% overall vs memory-side UBA)\n")
	return bld.String(), nil
}

// fig8 reports the perceived bandwidth in replies per cycle.
func fig8(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "UBA-mem", "NUBA-No-Rep", "NUBA", "Gain"}}
	var gains []float64
	for i, b := range v.benches {
		row := v.res[i]
		u := row[isoUBAMem].Stats.RepliesPerCycle()
		nr := row[isoNoRep].Stats.RepliesPerCycle()
		nb := row[isoNUBA].Stats.RepliesPerCycle()
		gain := 0.0
		if u > 0 {
			gain = (nb/u - 1) * 100
		}
		gains = append(gains, 1+gain/100)
		t.AddRow(b.Abbr, f3(u), f3(nr), f3(nb), pct(gain))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	fmt.Fprintf(&bld, "harmonic-mean perceived-bandwidth gain: %s (paper: +38.9%%)\n", hmean(gains))
	return bld.String(), nil
}

// fig9 reports the L1 miss service breakdown.
func fig9(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "UBA local", "NoRep local", "NUBA local", "NUBA replica"}}
	var localSum, n float64
	for i, b := range v.benches {
		row := v.res[i]
		u := row[isoUBAMem].Stats
		nr := row[isoNoRep].Stats
		nb := row[isoNUBA].Stats
		repFrac := 0.0
		if tot := nb.LocalAccesses + nb.RemoteAccesses; tot > 0 {
			repFrac = float64(nb.ReplicatedAccesses) / float64(tot)
		}
		localSum += nb.LocalFraction()
		n++
		t.AddRow(b.Abbr, f2(u.LocalFraction()), f2(nr.LocalFraction()), f2(nb.LocalFraction()), f2(repFrac))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	fmt.Fprintf(&bld, "mean NUBA local fraction: %.1f%% (paper: 63.9%% of L1 misses local)\n", 100*localSum/n)
	return bld.String(), nil
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
func fig10(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Config", "NoC GB/s", "Perf vs UBA@1400", "NoC power (W)"}}
	for j := 1; j < len(v.cfgs); j++ {
		cfg := &v.cfgs[j]
		var speedups []float64
		var power float64
		for _, row := range v.res {
			base, res := row[0], row[j]
			speedups = append(speedups, float64(base.Stats.Cycles)/float64(res.Stats.Cycles))
			power += energy.NoCPowerW(energy.Breakdown{NoCNJ: res.Stats.NoCEnergyNJ},
				res.Stats.Cycles, cfg.CoreClockGHz)
		}
		power /= float64(len(v.benches))
		t.AddRow(cfg.Arch.String(), fmt.Sprintf("%.0f", cfg.NoCBandwidthGBs), hmean(speedups), f2(power))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	bld.WriteString("(paper: NUBA@700 ~= UBA@5600 performance at 12.1x / 9.4x lower NoC power)\n")
	return bld.String(), nil
}

// fig11Configs is UBA, then NUBA under first-touch, round-robin and LAB
// placement.
func fig11Configs() []nuba.Config {
	cfgs := []nuba.Config{nuba.Baseline()}
	for _, p := range []nuba.PlacementPolicy{nuba.FirstTouch, nuba.RoundRobin, nuba.LAB} {
		cfg := nuba.NUBAConfig()
		cfg.Placement = p
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// fig11 compares page allocation policies on NUBA (with MDR active, as
// in the paper's Figure 11).
func fig11(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "FT vs UBA", "RR vs UBA", "LAB vs UBA"}}
	var ftS, rrS, labS []float64
	for i, b := range v.benches {
		ub, ft, rr, lab := v.res[i][0], v.res[i][1], v.res[i][2], v.res[i][3]
		ftS = append(ftS, float64(ub.Stats.Cycles)/float64(ft.Stats.Cycles))
		rrS = append(rrS, float64(ub.Stats.Cycles)/float64(rr.Stats.Cycles))
		labS = append(labS, float64(ub.Stats.Cycles)/float64(lab.Stats.Cycles))
		t.AddRow(b.Abbr, class(b), pct(speedupPct(ft, ub)), pct(speedupPct(rr, ub)), pct(speedupPct(lab, ub)))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	fmt.Fprintf(&bld, "harmonic means vs UBA: FT %s  RR %s  LAB %s\n", hmean(ftS), hmean(rrS), hmean(labS))
	bld.WriteString("(paper: LAB +14.8% vs UBA; LAB beats FT by 88.9% and RR by 14.3% on NUBA)\n")
	return bld.String(), nil
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
func fig12(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "Full-Rep", "MDR", "LLCmiss No/Full"}}
	var fullS, mdrS []float64
	for i, b := range v.benches {
		rn, rf, rm := v.res[i][0], v.res[i][1], v.res[i][2]
		fullS = append(fullS, float64(rn.Stats.Cycles)/float64(rf.Stats.Cycles))
		mdrS = append(mdrS, float64(rn.Stats.Cycles)/float64(rm.Stats.Cycles))
		t.AddRow(b.Abbr, class(b), pct(speedupPct(rf, rn)), pct(speedupPct(rm, rn)),
			fmt.Sprintf("%.2f/%.2f", 1-rn.Stats.LLCHitRate(), 1-rf.Stats.LLCHitRate()))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	fmt.Fprintf(&bld, "harmonic means vs No-Rep: Full-Rep %s  MDR %s\n", hmean(fullS), hmean(mdrS))
	bld.WriteString("(paper: MDR +15.1% vs No-Rep; Full-Rep helps 2MM/AN/SN/RN, hurts SC/BT/GRU/BICG)\n")
	return bld.String(), nil
}

// fig13 reports the energy breakdown.
func fig13(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "UBA NoC%", "NUBA NoC%", "NoC energy vs UBA", "Total vs UBA"}}
	var mn, mt float64
	for i, b := range v.benches {
		u := v.res[i][isoUBAMem].Stats
		nb := v.res[i][isoNUBA].Stats
		uNoC := u.NoCEnergyNJ / u.TotalEnergyNJ() * 100
		nNoC := nb.NoCEnergyNJ / nb.TotalEnergyNJ() * 100
		nocR := (nb.NoCEnergyNJ/u.NoCEnergyNJ - 1) * 100
		totR := (nb.TotalEnergyNJ()/u.TotalEnergyNJ() - 1) * 100
		mn += nb.NoCEnergyNJ / u.NoCEnergyNJ
		mt += nb.TotalEnergyNJ() / u.TotalEnergyNJ()
		t.AddRow(b.Abbr, f2(uNoC), f2(nNoC), pct(nocR), pct(totR))
	}
	mn /= float64(len(v.benches))
	mt /= float64(len(v.benches))
	var bld strings.Builder
	bld.WriteString(t.String())
	fmt.Fprintf(&bld, "mean NUBA/UBA: NoC energy %.2fx, total energy %.2fx (paper: NoC -54.5%%, total -16.0%%)\n", mn, mt)
	return bld.String(), nil
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
func (s sensitivity) render(v *view) (string, error) {
	t := &metrics.Table{Header: []string{s.label, "NUBA vs UBA (low)", "(high)", "(all)"}}
	for k, vr := range s.variants {
		var c byClass
		for i, b := range v.benches {
			ub, nb := v.res[i][2*k], v.res[i][2*k+1]
			c.add(b, float64(ub.Stats.Cycles)/float64(nb.Stats.Cycles))
		}
		low, high, all := c.hmeans()
		t.AddRow(vr.name, low, high, all)
	}
	return t.String(), nil
}

// fig14AddrMapConfigs is the UBA+PAE versus NUBA pair.
func fig14AddrMapConfigs() []nuba.Config {
	ubaPAE := nuba.Baseline()
	ubaPAE.AddressMap = nuba.PAE
	return []nuba.Config{ubaPAE, nuba.NUBAConfig()}
}

// fig14AddrMap compares NUBA (fixed-channel) against UBA with PAE.
func fig14AddrMap(v *view) (string, error) {
	var c byClass
	for i, b := range v.benches {
		ub, nb := v.res[i][0], v.res[i][1]
		c.add(b, float64(ub.Stats.Cycles)/float64(nb.Stats.Cycles))
	}
	var bld strings.Builder
	groupSummary(&bld, "NUBA vs UBA+PAE", &c)
	bld.WriteString("(paper: +19.7% average improvement over UBA with PAE)\n")
	return bld.String(), nil
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

func fig14LAB(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"LAB threshold", "vs UBA (low)", "(high)", "(all)"}}
	for j := 1; j < len(v.cfgs); j++ {
		var c byClass
		for i, b := range v.benches {
			ub, nb := v.res[i][0], v.res[i][j]
			c.add(b, float64(ub.Stats.Cycles)/float64(nb.Stats.Cycles))
		}
		low, high, all := c.hmeans()
		t.AddRow(fmt.Sprintf("%.2f", v.cfgs[j].LABThreshold), low, high, all)
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	bld.WriteString("(paper: 0.8 -> +14.5%, 0.9 -> +14.8%, 0.95 -> +13.1% vs UBA)\n")
	return bld.String(), nil
}

// fig16Configs is the monolithic 2x GPU as UBA and NUBA, then the
// four-module MCM as UBA and NUBA.
func fig16Configs() []nuba.Config {
	return []nuba.Config{
		nuba.Baseline().Scale(2),
		nuba.NUBAConfig().Scale(2),
		nuba.MCMConfig(nuba.UBAMem),
		nuba.MCMConfig(nuba.NUBA),
	}
}

// fig16 compares UBA and NUBA in the four-module MCM configuration
// against the monolithic 2x GPU.
func fig16(v *view) (string, error) {
	var mono, mcm byClass
	for i, b := range v.benches {
		mu, mn, xu, xn := v.res[i][0], v.res[i][1], v.res[i][2], v.res[i][3]
		mono.add(b, float64(mu.Stats.Cycles)/float64(mn.Stats.Cycles))
		mcm.add(b, float64(xu.Stats.Cycles)/float64(xn.Stats.Cycles))
	}
	var bld strings.Builder
	groupSummary(&bld, "monolithic 2x NUBA vs UBA", &mono)
	groupSummary(&bld, "MCM 4-module NUBA vs UBA ", &mcm)
	bld.WriteString("(paper: +30.1% monolithic vs +40.0% MCM)\n")
	return bld.String(), nil
}

// altConfigs is UBA, then NUBA under LAB, migration and page replication
// — the §7.6 placement alternatives.
func altConfigs() []nuba.Config {
	mig := nuba.NUBAConfig()
	mig.Placement = nuba.Migration
	rep := nuba.NUBAConfig()
	rep.Placement = nuba.PageReplication
	return []nuba.Config{nuba.Baseline(), nuba.NUBAConfig(), mig, rep}
}

// altPlacement compares LAB against the §7.6 alternatives.
func altPlacement(v *view) (string, error) {
	t := &metrics.Table{Header: []string{"Bench", "Class", "LAB", "Migration", "PageRep", "Migrations", "PageReplicas"}}
	for i, b := range v.benches {
		ub, rl, rm, rp := v.res[i][0], v.res[i][1], v.res[i][2], v.res[i][3]
		t.AddRow(b.Abbr, class(b), pct(speedupPct(rl, ub)), pct(speedupPct(rm, ub)), pct(speedupPct(rp, ub)),
			fmt.Sprintf("%d", rm.Stats.PageMigrations), fmt.Sprintf("%d", rp.Stats.PageReplicas))
	}
	var bld strings.Builder
	bld.WriteString(t.String())
	bld.WriteString("(paper: migration/replication ~+26% on low-sharing but up to -80.4% on high-sharing)\n")
	return bld.String(), nil
}

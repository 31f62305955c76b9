package driver

import (
	"cmp"
	"slices"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// This file implements the §7.6 alternative placement mechanisms that the
// paper compares LAB/MDR against: access-count-driven page migration
// (Griffin-style) and page-granularity replication (Carrefour-style).
// Both are driven by per-interval access counters that the core updates on
// every LLC access when one of these policies is active.

// Action is one migration decision for the core to charge costs for
// (copy traffic, TLB shootdown, page busy time): Page moves its home from
// channel From to channel To; accessors stall while the copy is in flight
// and cached lines of the old frame go cold.
type Action struct {
	Page *Page
	From int
	To   int
}

// RecordAccess bumps the interval access counter of a page for the
// accessing partition. Only meaningful when the Migration or
// PageReplication policy is active (the counters are nil otherwise).
func (d *Driver) RecordAccess(p *Page, part int) {
	if p.accesses == nil || part >= len(p.accesses) {
		return
	}
	p.accesses[part]++
	// Page replication is eager: once a remote partition has touched a
	// read-only page MigrationThreshold times, give it a replica.
	if d.cfg.Placement == config.PageReplication && !p.Writable && part != p.Channel &&
		int(p.accesses[part]) == d.cfg.MigrationThreshold {
		if p.Replicas == nil {
			p.Replicas = make(map[int]uint64, 4)
		}
		if _, ok := p.Replicas[part]; !ok {
			ppn := d.mapper.ComposeFrame(d.frameSeq[part], part)
			d.frameSeq[part]++
			p.Replicas[part] = ppn
			d.Replications++
		}
	}
}

// MigrationCandidates scans the interval counters and returns the pages
// the migration policy moves this interval: pages whose dominant accessor
// is a remote partition with at least MigrationThreshold accesses and at
// least twice the home partition's count. All interval counters reset.
func (d *Driver) MigrationCandidates(now sim.Cycle) []Action {
	if d.cfg.Placement != config.Migration {
		return nil
	}
	// Visit pages in VPN order: the action list feeds simulated work, so
	// the order pages were first touched in must not leak into cycle counts.
	slices.SortFunc(d.counted, func(a, b *Page) int { return cmp.Compare(a.VPN, b.VPN) })
	var actions []Action
	for _, p := range d.counted {
		best, bestCount := p.Channel, int32(0)
		var total int32
		for ch, c := range p.accesses {
			total += c
			if c > bestCount {
				best, bestCount = ch, c
			}
		}
		if total == 0 {
			continue
		}
		home := p.accesses[p.Channel]
		if best != p.Channel && int(bestCount) >= d.cfg.MigrationThreshold && bestCount >= 2*home+1 {
			actions = append(actions, Action{Page: p, From: p.Channel, To: best})
		}
		for ch := range p.accesses {
			p.accesses[ch] = 0
		}
	}
	return actions
}

// ApplyMigration rehomes the page to channel to, allocating a fresh frame
// there, and marks the page busy until busyUntil (the copy + shootdown
// cost charged by the core). It returns the new physical page number.
func (d *Driver) ApplyMigration(p *Page, to int, busyUntil sim.Cycle) uint64 {
	d.pagesPerChannel[p.Channel]--
	d.pagesPerChannel[to]++
	p.Channel = to
	p.PPN = d.mapper.ComposeFrame(d.frameSeq[to], to)
	d.frameSeq[to]++
	p.BusyUntil = busyUntil
	d.Migrations++
	return p.PPN
}

// CollapseReplicas removes every replica of a page (called when a store
// targets a replicated page); every partition resolves to the home frame
// again.
func (d *Driver) CollapseReplicas(p *Page) { p.Replicas = nil }

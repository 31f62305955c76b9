package driver

import (
	"slices"
	"testing"

	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
)

func newDriver(t *testing.T, p config.PlacementPolicy) (*Driver, *config.Config) {
	t.Helper()
	cfg := config.Baseline()
	cfg.Placement = p
	m := addrmap.New(&cfg)
	return New(&cfg, m), &cfg
}

func TestFirstTouchPlacesLocally(t *testing.T) {
	d, _ := newDriver(t, config.FirstTouch)
	for part := 0; part < 32; part++ {
		p := d.Allocate(uint64(1000+part), part, false)
		if p.Channel != part {
			t.Fatalf("first-touch put page in %d, toucher partition %d", p.Channel, part)
		}
	}
}

func TestRoundRobinDistributes(t *testing.T) {
	d, cfg := newDriver(t, config.RoundRobin)
	for i := 0; i < 64; i++ {
		d.Allocate(uint64(i), 5, false) // all touched by partition 5
	}
	for ch, n := range d.PageCounts() {
		if n != 64/int64(cfg.NumChannels) {
			t.Fatalf("channel %d holds %d pages", ch, n)
		}
	}
}

func TestNPB(t *testing.T) {
	d, _ := newDriver(t, config.LAB)
	if d.NPB() != 1 {
		t.Fatalf("empty system NPB = %v", d.NPB())
	}
	d.Allocate(1, 0, false)
	// One page in one of 32 channels: NPB = 1/32.
	if got := d.NPB(); got > 0.05 {
		t.Fatalf("skewed NPB = %v", got)
	}
}

func TestLABSwitchesToLeastFirst(t *testing.T) {
	d, _ := newDriver(t, config.LAB)
	// Partition 0 touches many pages; LAB must start spreading them.
	for i := 0; i < 320; i++ {
		d.Allocate(uint64(i), 0, false)
	}
	counts := d.PageCounts()
	if counts[0] > 32 {
		t.Fatalf("LAB let partition 0 hoard %d pages", counts[0])
	}
	if d.LeastFirstOps == 0 {
		t.Fatal("least-first never engaged")
	}
	// Balance must be good: max-min small.
	var mn, mx int64 = 1 << 60, 0
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mx-mn > 4 {
		t.Fatalf("imbalance %d..%d", mn, mx)
	}
}

func TestLABStaysLocalWhenBalanced(t *testing.T) {
	d, _ := newDriver(t, config.LAB)
	// Interleaved touches from all partitions: placement should be
	// almost entirely local.
	local := 0
	for round := 0; round < 20; round++ {
		for part := 0; part < 32; part++ {
			p := d.Allocate(uint64(round*32+part), part, false)
			if p.Channel == part {
				local++
			}
		}
	}
	if local < 600 { // 640 allocations
		t.Fatalf("only %d/640 placed locally under balanced load", local)
	}
}

func TestLeastFirstTieBreakPrefersLocal(t *testing.T) {
	d, cfg := newDriver(t, config.LAB)
	cfg.LABThreshold = 2 // force least-first always (NPB <= 1 < 2)
	p := d.Allocate(77, 9, false)
	if p.Channel != 9 {
		t.Fatalf("balanced least-first ignored local partition: %d", p.Channel)
	}
}

func TestAllocateIdempotent(t *testing.T) {
	d, _ := newDriver(t, config.FirstTouch)
	p1 := d.Allocate(5, 1, false)
	p2 := d.Allocate(5, 30, true)
	if p1 != p2 || p2.Channel != 1 {
		t.Fatal("re-allocation changed placement")
	}
	if d.Allocations != 1 {
		t.Fatalf("allocations = %d", d.Allocations)
	}
}

func TestTranslate(t *testing.T) {
	d, _ := newDriver(t, config.FirstTouch)
	if _, ok := d.Translate(123, 0); ok {
		t.Fatal("unmapped page translated")
	}
	p := d.Allocate(123, 4, false)
	ppn, ok := d.Translate(123, 0)
	if !ok || ppn != p.PPN {
		t.Fatal("translate mismatch")
	}
}

func TestPageReplicationFlow(t *testing.T) {
	d, cfg := newDriver(t, config.PageReplication)
	cfg.MigrationThreshold = 4
	p := d.Allocate(55, 0, false) // read-only page, home partition 0
	// Partition 7 reads it repeatedly.
	for i := 0; i < 4; i++ {
		d.RecordAccess(p, 7)
	}
	if d.Replications != 1 {
		t.Fatalf("replications = %d", d.Replications)
	}
	ppn7, _, _ := d.Resolve(55, 7)
	ppn0, _ := d.Translate(55, 0)
	if ppn7 == ppn0 {
		t.Fatal("partition 7 not redirected to its replica")
	}
	// Writable pages are never replicated.
	w := d.Allocate(56, 0, true)
	for i := 0; i < 10; i++ {
		d.RecordAccess(w, 7)
	}
	if w.Replicas != nil {
		t.Fatal("writable page replicated")
	}
	// A write collapses replicas.
	if d.CollapseReplicas(p); p.Replicas != nil {
		t.Fatal("collapse failed")
	}
	if after, _ := d.Translate(55, 7); after != ppn0 {
		t.Fatal("collapsed replica still used")
	}
}

func TestMigrationCandidates(t *testing.T) {
	d, cfg := newDriver(t, config.Migration)
	cfg.MigrationThreshold = 8
	p := d.Allocate(70, 0, false)
	q := d.Allocate(71, 0, false)
	// p: heavily accessed by remote partition 3; q: local only.
	for i := 0; i < 20; i++ {
		d.RecordAccess(p, 3)
	}
	for i := 0; i < 20; i++ {
		d.RecordAccess(q, 0)
	}
	acts := d.MigrationCandidates(100)
	if len(acts) != 1 || acts[0].Page != p || acts[0].To != 3 {
		t.Fatalf("candidates: %+v", acts)
	}
	old := p.PPN
	newPPN := d.ApplyMigration(p, 3, 500)
	if p.Channel != 3 || newPPN == old || p.BusyUntil != 500 {
		t.Fatal("migration not applied")
	}
	if d.Migrations != 1 {
		t.Fatalf("migrations = %d", d.Migrations)
	}
	// One probe gives an SM both the new frame and how long it is busy.
	if ppn, busyUntil, ok := d.Resolve(70, 0); !ok || ppn != newPPN || busyUntil != 500 {
		t.Fatalf("Resolve after migration = (%d, %d, %v), want (%d, 500, true)", ppn, busyUntil, ok, newPPN)
	}
	if _, _, ok := d.Resolve(9999, 0); ok {
		t.Fatal("Resolve mapped an unmapped page")
	}
	// Counters reset: a second scan finds nothing.
	if acts := d.MigrationCandidates(200); len(acts) != 0 {
		t.Fatalf("stale candidates: %v", acts)
	}

	// The scan visits pages in VPN order, not in the order they were
	// first touched: the actions feed simulated work.
	d, cfg = newDriver(t, config.Migration)
	cfg.MigrationThreshold = 8
	for _, vpn := range []uint64{90, 70, 80} {
		p := d.Allocate(vpn, 0, false)
		for i := 0; i < 20; i++ {
			d.RecordAccess(p, 3)
		}
	}
	var order []uint64
	for _, a := range d.MigrationCandidates(300) {
		order = append(order, a.Page.VPN)
	}
	if !slices.Equal(order, []uint64{70, 80, 90}) {
		t.Fatalf("scan order %v, want [70 80 90]", order)
	}
}

func TestPageCountsIsCopy(t *testing.T) {
	d, _ := newDriver(t, config.FirstTouch)
	d.Allocate(1, 0, false)
	c := d.PageCounts()
	c[0] = 999
	if d.PageCounts()[0] == 999 {
		t.Fatal("PageCounts returned internal slice")
	}
	if d.Pages() != 1 {
		t.Fatalf("pages = %d", d.Pages())
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba"
)

// TestBenchmark is the smoke: every workload once at smoke size with its
// checks, one traced pass, and every emitted name against BENCHMARK.json
// in both directions. The numbers it sees are not the benchmark's.
func TestBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke simulates for several seconds")
	}
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWorkloadsDeclared(sp); err != nil {
		t.Error(err)
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		w, err := newWorkload(name, smokeSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(ctx); err != nil {
			t.Fatalf("%s set-up: %v", name, err)
		}
		pass := &timed{setupS: 1, speed: 1}
		s, o := newMeter(w.threads()).measure(func() outcome { return w.rep(ctx) })
		pass.add(name+" rep 1", o)
		pass.samples = append(pass.samples, s)
		if name == "idle_sparse" { // the cheapest reference
			pass.checkReference(ctx, w)
		}
		if name == "sweep_iso" && (o.sims != 4 || o.gap < 0) {
			t.Errorf("sweep_iso: %d simulations, fig7 gap %v; want 4 and a parsed gap", o.sims, o.gap)
		}
		for _, f := range pass.failures {
			t.Errorf("%s: %s", name, f)
		}
		if err := checkDeclared(pass.metrics(), sp.EndToEnd); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for m, v := range pass.metrics() {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want positive", name, m, v.Value)
			}
		}
	}

	w, err := newWorkload("idle_sparse", smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tracedPass(ctx, w, 1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tp.failures {
		t.Errorf("traced idle_sparse: %s", f)
	}
	if err := checkDeclared(tp.values, sp.PerLayer); err != nil {
		t.Error(err)
	}
	var shares float64
	for name, m := range tp.values {
		if m.Unit == cpuShareUnit && (strings.HasSuffix(name, cpuShareSuffix) || strings.HasPrefix(name, "runtime.")) {
			shares += m.Value
		}
	}
	if math.Abs(shares-1) > 0.01 {
		t.Errorf("CPU shares sum to %v, want 1", shares)
	}
	if len(tp.spans.list) == 0 || tp.spans.list[0].Name != "rep" || tp.spans.list[0].Parent != -1 {
		t.Errorf("spans do not start with a root rep span: %+v", tp.spans.list)
	}
}

// pb is a minimal protobuf encoder for the profile fixture.
type pb struct{ bytes.Buffer }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	p.WriteByte(byte(x))
}

func (p *pb) uintField(num int, x uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(x)
}

func (p *pb) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func packed(xs ...uint64) []byte {
	var p pb
	for _, x := range xs {
		p.varint(x)
	}
	return p.Bytes()
}

// fixtureProfile encodes a CPU profile with one function per name (id =
// index+1, one location each, except that location 100 inlines function 2
// into function 1) and the given samples.
func fixtureProfile(t *testing.T, names []string, samples []struct {
	locs  []uint64
	count uint64
}) []byte {
	t.Helper()
	var prof pb
	for _, s := range samples {
		var m pb
		m.bytesField(1, packed(s.locs...))
		m.bytesField(2, packed(s.count, s.count*2_000_000))
		prof.bytesField(2, m.Bytes())
	}
	location := func(id uint64, fns ...uint64) {
		var m pb
		m.uintField(1, id)
		m.uintField(3, 0x1000+id) // address: skipped by the decoder
		for _, fn := range fns {
			var line pb
			line.uintField(1, fn)
			line.uintField(2, 42)
			m.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, m.Bytes())
	}
	prof.bytesField(6, nil) // string_table[0] is ""
	for i, name := range names {
		id := uint64(i + 1)
		location(id, id)
		var fn pb
		fn.uintField(1, id)
		fn.uintField(2, id) // name: string-table index
		prof.bytesField(5, fn.Bytes())
		prof.bytesField(6, []byte(name))
	}
	location(100, 2, 1)
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zipped.Bytes()
}

func TestFoldProfile(t *testing.T) {
	names := []string{
		layerPrefix + "core.(*GPU).step",                                 // 1
		layerPrefix + "mdr.(*Profiler).Observe",                          // 2
		layerPrefix + "sim.(*Queue[go.shape.*uint8]).Push",               // 3
		"runtime.mallocgcSmallNoscan",                                    // 4
		"runtime.futex",                                                  // 5
		layerPrefix + "smcore.(*SM).newReq",                              // 6
		layerPrefix + "config.(*Config).LLCSets",                         // 7: a module package outside the ledger
		"github.com/nuba-gpu/nuba/bench.measure",                         // 8: the harness
		layerPrefix + "core.(*GPU).wire.func1",                           // 9
		"github.com/nuba-gpu/nuba/internal/experiments.(*Runner).runCtx", // 10
	}
	raw := fixtureProfile(t, names, []struct {
		locs  []uint64
		count uint64
	}{
		{[]uint64{1}, 10},      // core
		{[]uint64{100}, 5},     // mdr inlined into core: the leaf is mdr
		{[]uint64{3, 9, 1}, 4}, // sim under core
		{[]uint64{4, 6, 1}, 8}, // allocation under smcore: alloc/GC, not smcore
		{[]uint64{5}, 2},       // runtime, no allocation frame: other
		{[]uint64{7, 1}, 3},    // outside the ledger: other
		{[]uint64{8}, 1},       // harness: other
		{[]uint64{10}, 7},      // experiments
		{[]uint64{9}, 0},       // zero-count sample: ignored
	})
	samples, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[1].stack; len(got) != 2 || got[0] != names[1] || got[1] != names[0] {
		t.Errorf("inlined location decoded as %v, want callee then caller", got)
	}
	shares := foldShares(samples)
	want := map[string]float64{
		"core.cpu_share": 10, "mdr.cpu_share": 5, "sim.cpu_share": 4, "experiments.cpu_share": 7,
		allocGCShare: 8, otherShare: 6,
	}
	var sum float64
	for name, share := range shares {
		sum += share
		if math.Abs(share-want[name]/40) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, share, want[name]/40)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(ledgerLayers)+2 {
		t.Errorf("%d shares, want one per ledger layer plus two", len(shares))
	}

	if _, err := parseProfile(raw[:len(raw)/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
	empty := foldShares(nil)
	if empty[otherShare] != 1 {
		t.Errorf("empty profile: other share %v, want 1", empty[otherShare])
	}
}

// statsFields pins the fields statsDigest covers, in order. A field
// added to, removed from or moved within metrics.Stats changes every
// digest; this list failing is the reminder that digests recorded before
// the change no longer compare.
var statsFields = []string{
	"Cycles", "Instructions", "ThreadInstructions",
	"L1Accesses", "L1Hits", "L1Misses",
	"LocalAccesses", "RemoteAccesses", "ReplicatedAccesses",
	"LLCAccesses", "LLCHits", "LLCMisses",
	"Replies",
	"DRAMReads", "DRAMWrites", "DRAMRowHits", "DRAMRowMisses",
	"NoCFlits", "NoCBytes", "LocalLinkBytes",
	"CoherenceInvalidations", "CoherenceTraffic",
	"PageFaults", "PageMigrations", "PageReplicas",
	"TLBAccesses", "TLBMisses", "L2TLBAccesses", "L2TLBMisses", "PageWalks",
	"MDRDecisions", "MDREpochsReplicating",
	"MemLatencySum", "MemLatencyCount",
	"NoCEnergyNJ", "DRAMEnergyNJ", "CoreEnergyNJ", "LLCEnergyNJ", "StaticEnergyNJ",
}

func TestStatsDigest(t *testing.T) {
	typ := reflect.TypeOf(nuba.Stats{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, statsFields) {
		t.Fatalf("Stats fields changed:\n got %v\nwant %v", got, statsFields)
	}
	const zeroDigest = 0xe33d6cc553c0b386
	if d := statsDigest(&nuba.Stats{}); d != zeroDigest {
		t.Errorf("digest of the zero Stats = %#x, want %#x", d, uint64(zeroDigest))
	}
	// Every field moves the digest, and two fields holding each other's
	// values do not cancel.
	seen := map[uint64]string{statsDigest(&nuba.Stats{}): "zero"}
	for i := 0; i < typ.NumField(); i++ {
		var st nuba.Stats
		f := reflect.ValueOf(&st).Elem().Field(i)
		if f.Kind() == reflect.Int64 {
			f.SetInt(7)
		} else {
			f.SetFloat(7)
		}
		d := statsDigest(&st)
		if prev, dup := seen[d]; dup {
			t.Errorf("%s=7 and %s share digest %#x", typ.Field(i).Name, prev, d)
		}
		seen[d] = typ.Field(i).Name
	}
}

func TestFig7Gap(t *testing.T) {
	report := strings.Join([]string{
		"Bench  Class  UBA-SM  NUBA-No-Rep  NUBA",
		"LBM    low    -12.4%  +25.2%       +25.4%",
		"",
		"NUBA speedup over UBA (%)",
		"NUBA-No-Rep vs UBA: low-sharing +49.1%  high-sharing -5.9%  all +15.4%",
		"NUBA        vs UBA: low-sharing +49.8%  high-sharing -4.9%  all +58.2%",
		fig7PaperLine,
		"",
	}, "\n")
	gap, err := fig7Gap(report)
	if err != nil {
		t.Fatal(err)
	}
	// (|49.8-30.4| + |-4.9-15.1|) / 2
	if want := (19.4 + 20.0) / 2; math.Abs(gap-want) > 1e-9 {
		t.Errorf("gap = %v, want %v", gap, want)
	}
	for _, drop := range []string{"NUBA-No-Rep vs", "NUBA        vs", "(paper:"} {
		var kept []string
		for _, line := range strings.Split(report, "\n") {
			if !strings.HasPrefix(line, drop) {
				kept = append(kept, line)
			}
		}
		if _, err := fig7Gap(strings.Join(kept, "\n")); err == nil {
			t.Errorf("report without its %q line parsed without error", drop)
		}
	}
}

func TestCompareSets(t *testing.T) {
	declared := []metricSpec{{Name: "run_wall_s", Bound: 0.10}, {Name: "allocs_per_run", Bound: 0.005}}
	set := func(wall float64, allocs uint64, digest uint64) *timed {
		return &timed{tally: tally{attempted: 1, digest: digest, haveDig: true}, speed: 1,
			samples: []sample{{WallS: wall, Allocs: allocs, SimCycles: 1}}}
	}
	if d := compareSets("w", set(1, 1000, 9), set(1.09, 1004, 9), declared); len(d) != 0 {
		t.Errorf("sets within bounds reported %v", d)
	}
	d := compareSets("w", set(1, 1000, 9), set(0.8, 1006, 8), declared)
	if len(d) != 3 {
		t.Fatalf("want wall, allocs and digest to differ, got %v", d)
	}
	for i, want := range []string{"w run_wall_s", "w allocs_per_run", "w core.stats_digest"} {
		if !strings.HasPrefix(d[i], want) {
			t.Errorf("difference %d = %q, want it to name %q", i, d[i], want)
		}
	}
	bad := set(1, 1000, 9)
	bad.failures = []string{"x"}
	if d := compareSets("w", bad, set(1, 1000, 9), declared); len(d) != 1 || !strings.Contains(d[0], "failed operations: 1") {
		t.Errorf("failed operation not reported: %v", d)
	}
}

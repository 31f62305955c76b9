package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"
)

const (
	// profileHz is the CPU-profile sampling rate asked for; the kernel's
	// timer tick caps what is delivered (250 Hz on the reference host).
	profileHz = 500
	// profileSeconds is how much traced work the profile should cover:
	// a short operation is traced several times over, so that a layer
	// with a 1 % share still collects a double-digit sample count.
	profileSeconds = 4.0
	// maxTracedReps bounds that repetition.
	maxTracedReps = 8
)

// span is one timed interval at a layer boundary. Start and End are
// seconds since the log was opened; Parent is the ID of the span that
// caused this one, -1 for a root. A span's self time is its duration
// minus the part its children cover.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// spanLog keeps spans in memory; the caller writes them out at the end.
type spanLog struct {
	workload string
	rep      int
	epoch    time.Time
	list     []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, epoch: time.Now()}
}

func (l *spanLog) begin(name string, parent int) int {
	id := len(l.list)
	l.list = append(l.list, span{ID: id, Name: name, Parent: parent, Workload: l.workload, Rep: l.rep,
		Start: time.Since(l.epoch).Seconds()})
	return id
}

func (l *spanLog) end(id int) {
	l.list[id].End = time.Since(l.epoch).Seconds()
}

// seconds sums the durations of the spans with the given name.
func (l *spanLog) seconds(name string) float64 {
	var d float64
	for _, s := range l.list {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// spanMetrics are the whole-run spans reported as per-layer metrics; a
// span a workload never opens reads 0.
var spanMetrics = []string{
	"workload.build_s", "core.new_s", "core.exec_s", "energy.collect_s",
	"experiments.prefetch_s", "experiments.render_s",
}

// traced is the result of one traced pass.
type traced struct {
	tally
	spans  *spanLog
	values map[string]metric
}

// tracedPass produces the per-layer ledger. It never feeds an end-to-end
// metric: it runs minReps untraced operations for a baseline, then the
// operation step by step through public functions with a span around
// each, under a CPU profile; then the layer drivers, driverOps operations
// each.
func tracedPass(ctx context.Context, w bench, seed uint64, driverOps int) (*traced, error) {
	t := &traced{spans: newSpanLog(w.name()), values: map[string]metric{}}
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	var walls []float64
	for rep := 1; rep <= minReps; rep++ {
		runtime.GC()
		start := time.Now()
		o := w.rep(ctx)
		walls = append(walls, time.Since(start).Seconds())
		t.add(fmt.Sprintf("%s rep %d", w.name(), rep), o)
	}

	base := median(walls)
	reps := min(max(int(math.Ceil(profileSeconds/base)), 1), maxTracedReps)

	runtime.GC()
	var prof bytes.Buffer
	// StartCPUProfile asks for 100 Hz and keeps an earlier, faster rate
	// (it logs one line saying so).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var o outcome
	for i := 1; i <= reps; i++ {
		t.spans.rep = minReps + i
		root := t.spans.begin("rep", -1)
		o = w.traced(ctx, t.spans, root)
		t.spans.end(root)
		t.add(fmt.Sprintf("%s traced rep %d", w.name(), i), o)
	}
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// Span metrics are the mean over the traced reps.
	for _, name := range spanMetrics {
		t.values[name] = metric{t.spans.seconds(name) / float64(reps), "s"}
	}
	t.values["experiments.heap_sys_mib"] = metric{float64(ms.HeapSys) / (1 << 20), "MiB"}
	t.values["trace.overhead_share"] = metric{(t.spans.seconds("rep")/float64(reps) - base) / base, "fraction"}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	for name, share := range foldShares(samples) {
		t.values[name] = metric{share, cpuShareUnit}
	}
	for name, v := range counters(o) {
		t.values[name] = metric{v, counterUnits[name]}
	}
	for name, m := range layerDrivers(seed, driverOps) {
		t.values[name] = m
	}
	t.checkReference(ctx, w)
	return t, nil
}

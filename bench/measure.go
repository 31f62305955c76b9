package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	// minReps is the fewest timed operations a pass measures, however
	// short the budget.
	minReps = 3
	// Set-up takes milliseconds, so it is repeated for setupSeconds and at
	// least setupReps times; setup_s is the median.
	setupReps    = 15
	setupSeconds = 1.0
)

// sample is the host cost of one timed operation, as measured. HostSpeed
// is the speed of the host around the operation relative to the reference
// host (see calibrate): a diagnostic; the reported times are normalised
// by the speed of the whole pass.
type sample struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	HostSpeed float64 `json:"host_speed"`
	Allocs    uint64  `json:"allocs"`
	AllocMiB  float64 `json:"alloc_mib"`
	SimCycles int64   `json:"sim_cycles"`
}

// spread is the range behind a reported median.
type spread struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The shared host this benchmark runs on changes speed by 20-30 % from
// one ten-second stretch to the next (a fixed arithmetic loop shows it as
// plainly as the simulator does), which no rep count averages away: a
// whole run sits inside one stretch. So a calibration kernel — fixed work
// in this file, which no change to the simulator can touch — runs between
// the timed operations, and the pass's times are reported as what they
// would be on the reference host, the one where the kernel takes
// calibNominalS: median time × calibNominalS / median kernel time. Raw
// times stay in the result file.
const (
	calibNominalS = 0.100
	// calibALUSteps and calibMemSteps size the kernel's two phases,
	// register arithmetic and dependent random read-modify-writes over
	// calibWords words (4 MiB, past the L2), about half the time each.
	calibALUSteps = 20_000_000
	calibMemSteps = 4_000_000
	calibWords    = 1 << 19
)

// calibKernel runs the fixed work once and returns its wall seconds.
func calibKernel(buf []uint64) float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < calibALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < calibMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if j := x & (calibWords - 1); buf[j]&1 == 0 {
			buf[j] += x
		} else {
			buf[j] ^= x >> 3
		}
	}
	buf[0] = x
	return time.Since(start).Seconds()
}

// meter measures operations and the host speed between them. threads is
// how many cores the operation keeps busy: the kernel runs on as many
// goroutines at once, so a neighbour slowing either core shows.
type meter struct {
	threads int
	bufs    [][]uint64
	// calibs are the kernel's wall seconds, one entry per calibration:
	// before the first operation and after each.
	calibs []float64
}

func newMeter(threads int) *meter {
	m := &meter{threads: threads}
	for i := 0; i < threads; i++ {
		m.bufs = append(m.bufs, make([]uint64, calibWords))
	}
	return m
}

// calibrate runs the kernel, the mean over threads being one calibration.
// It collects first and waits for the collection to finish: a concurrent
// mark or sweep left over from the operation before would take a core
// from the kernel and read as a slow host. It also leaves every operation
// the same empty heap to start from, so one rep's garbage is not another
// rep's GC work.
func (m *meter) calibrate() {
	runtime.GC()
	took := make([]float64, m.threads)
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			took[i] = calibKernel(m.bufs[i])
		}()
	}
	wg.Wait()
	var sum float64
	for _, t := range took {
		sum += t
	}
	m.calibs = append(m.calibs, sum/float64(m.threads))
}

// bracket runs f with a calibration on either side.
func (m *meter) bracket(f func()) {
	if len(m.calibs) == 0 {
		m.calibrate()
	}
	f()
	m.calibrate()
}

// speed is the host's speed over the pass relative to the reference host.
func (m *meter) speed() float64 { return calibNominalS / median(m.calibs) }

// measure runs op once and returns its host cost.
func (m *meter) measure(op func() outcome) (sample, outcome) {
	var s sample
	var o outcome
	m.bracket(func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu := cpuSeconds()
		start := time.Now()
		o = op()
		s.WallS = time.Since(start).Seconds()
		s.CPUS = cpuSeconds() - cpu
		runtime.ReadMemStats(&after)
		s.Allocs = after.Mallocs - before.Mallocs
		s.AllocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	})
	n := len(m.calibs)
	s.HostSpeed = calibNominalS / ((m.calibs[n-2] + m.calibs[n-1]) / 2)
	s.SimCycles = o.cycles
	return s, o
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func spreadOf(v []float64) spread {
	s := spread{N: len(v)}
	for i, x := range v {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// tally accumulates the correctness verdicts of a pass: every simulation
// attempted, every check violated, and the digest all operations of the
// workload must share.
type tally struct {
	attempted int
	failures  []string
	digest    uint64
	haveDig   bool
}

// add files one operation's outcome. what names it in failure messages.
func (t *tally) add(what string, o outcome) {
	t.attempted += o.sims
	t.failures = append(t.failures, o.faults...)
	if len(o.faults) > 0 {
		return
	}
	if !t.haveDig {
		t.digest, t.haveDig = o.digest, true
	} else if o.digest != t.digest {
		t.failures = append(t.failures, fmt.Sprintf("%s: stats digest %016x differs from the first operation's %016x", what, o.digest, t.digest))
	}
}

func (t *tally) digestHex() string { return fmt.Sprintf("%016x", t.digest) }

// failed is the failed-operation count, capped at the attempted count (a
// run that breaks an invariant and the shared digest is one failure).
func (t *tally) failed() int { return min(len(t.failures), t.attempted) }

// result reports the verdicts with the pass's metrics.
func (t *tally) result(metrics map[string]metric) result {
	return result{Correct: t.failed() == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: metrics}
}

// checkReference runs the workload's reference (the naive engine) and
// requires its digest to equal the measured operations'.
func (t *tally) checkReference(ctx context.Context, w bench) {
	if ref, ok := w.reference(ctx); ok {
		t.add(w.name()+" reference (naive engine)", ref)
	}
}

// timed is the result of one timed pass: the raw set-up median, the raw
// samples, and the host speed the reported times are normalised by.
type timed struct {
	tally
	setupS  float64
	samples []sample
	speed   float64
}

// timedPass measures set-up, then runs the operation back to back for the
// budget (closed loop, one client) and at least minReps times, then runs
// the reference outside the timed reps.
func timedPass(ctx context.Context, w bench, seconds float64) (*timed, error) {
	t := &timed{}
	m := newMeter(w.threads())
	var setups []float64
	var err error
	m.bracket(func() {
		for begin := time.Now(); len(setups) < setupReps || time.Since(begin).Seconds() < setupSeconds; {
			start := time.Now()
			if err = w.setup(ctx); err != nil {
				return
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	t.setupS = median(setups)

	begin := time.Now()
	for rep := 1; rep <= minReps || time.Since(begin).Seconds() < seconds; rep++ {
		s, o := m.measure(func() outcome { return w.rep(ctx) })
		t.add(fmt.Sprintf("%s rep %d", w.name(), rep), o)
		if len(o.faults) == 0 {
			t.samples = append(t.samples, s)
		}
	}
	t.speed = m.speed()
	t.checkReference(ctx, w)
	return t, nil
}

// column extracts one per-sample quantity.
func (t *timed) column(f func(sample) float64) []float64 {
	v := make([]float64, len(t.samples))
	for i, s := range t.samples {
		v[i] = f(s)
	}
	return v
}

// columns are the per-rep end-to-end metrics, as measured; setup_s is
// measured apart. A time column is normalised when reported.
var columns = []struct {
	name, unit string
	time       bool
	of         func(sample) float64
}{
	{"run_wall_s", "s", true, func(s sample) float64 { return s.WallS }},
	{"host_ns_per_sim_cycle", "ns", true, func(s sample) float64 { return s.WallS * 1e9 / float64(s.SimCycles) }},
	{"cpu_s_per_run", "s", true, func(s sample) float64 { return s.CPUS }},
	{"allocs_per_run", "objects", false, func(s sample) float64 { return float64(s.Allocs) }},
	{"alloc_mib_per_run", "MiB", false, func(s sample) float64 { return s.AllocMiB }},
}

// scale is what a column's raw values are multiplied by when reported.
func (t *timed) scale(time bool) float64 {
	if time {
		return t.speed
	}
	return 1
}

func (t *timed) metrics() map[string]metric {
	m := map[string]metric{"setup_s": {t.setupS * t.speed, "s"}}
	for _, c := range columns {
		m[c.name] = metric{median(t.column(c.of)) * t.scale(c.time), c.unit}
	}
	return m
}

func (t *timed) spreads() map[string]spread {
	m := make(map[string]spread, len(columns))
	for _, c := range columns {
		sp := spreadOf(t.column(c.of))
		sp.Min *= t.scale(c.time)
		sp.Max *= t.scale(c.time)
		m[c.name] = sp
	}
	return m
}

// compareSets is -selfcheck: two timed passes of the same code must agree
// within every metric's bound, share one digest and have no failures.
func compareSets(workload string, a, b *timed, declared []metricSpec) []string {
	var diffs []string
	ma, mb := a.metrics(), b.metrics()
	for _, d := range declared {
		x, y := ma[d.Name].Value, mb[d.Name].Value
		if x == 0 || math.Abs(y-x)/x > d.Bound {
			diffs = append(diffs, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.2f%%, bound %.2f%%",
				workload, d.Name, x, y, math.Abs(y-x)/x*100, d.Bound*100))
		}
	}
	if a.digest != b.digest {
		diffs = append(diffs, fmt.Sprintf("%s core.stats_digest: %s vs %s", workload, a.digestHex(), b.digestHex()))
	}
	if n := a.failed() + b.failed(); n > 0 {
		diffs = append(diffs, fmt.Sprintf("%s failed operations: %d", workload, n))
	}
	return diffs
}

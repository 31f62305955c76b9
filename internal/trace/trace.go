// Package trace is the simulator's observability layer: epoch-resolution
// time series of the mechanisms the paper's Figures 9-11 reason about
// (NPB, LMR/RMR occupancy, NoC utilization, LLC hit/miss/replication
// rates, MDR decisions with predicted vs. observed bandwidth, DRAM
// bank-group busy fractions) plus a Chrome trace_event export of coarse
// spans (kernel launches, MDR epochs, page migrations) loadable in
// Perfetto or chrome://tracing.
//
// The emitted schema is a documented contract: docs/OBSERVABILITY.md
// specifies every event type, field and unit, and the repo's trace tests
// assert that everything emitted here appears there. Field order is
// pinned by hand-rolled JSON (never encoding/json over a map) and floats
// are formatted at fixed precision, so for a given (Config, Benchmark)
// the byte stream is identical across runs and worker counts.
//
// Tracing is strictly passive: every value derives from simulated state
// (cycle counts, component counters), never from the wall clock, so an
// attached tracer cannot perturb the simulation. With no tracer attached
// the core pays one nil check per cycle.
package trace

import (
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// SchemaVersion identifies the emitted schema; it is the first field of
// the NDJSON meta record and changes only with docs/OBSERVABILITY.md.
const SchemaVersion = "nuba-trace/1"

// Options configure the sinks of one traced run. A nil writer disables
// that sink; both nil means tracing is off.
type Options struct {
	// EpochCycles is the sampling interval of the time series in core
	// cycles. New wants it positive; nuba.Run reads zero or negative as
	// the configuration's MDR epoch (the natural resolution of the
	// paper's temporal mechanisms).
	EpochCycles sim.Cycle
	// Series receives the NDJSON epoch time series (one JSON object per
	// line; see docs/OBSERVABILITY.md).
	Series io.Writer
	// Chrome receives a Chrome trace_event JSON array of coarse spans,
	// loadable in Perfetto or chrome://tracing.
	Chrome io.Writer
}

// Enabled reports whether the options select any sink.
func (o Options) Enabled() bool { return o.Series != nil || o.Chrome != nil }

// Tracer writes trace events to the configured sinks. The core calls its
// emit methods from the cycle loop; all state is derived from simulated
// time, so emission is deterministic. Tracer is not safe for concurrent
// use — each simulated System owns at most one.
type Tracer struct {
	epoch  sim.Cycle
	ghz    float64
	series io.Writer
	chrome io.Writer

	chromeEvents int
	lastMDREnd   sim.Cycle // start of the MDR epoch span being accumulated
	err          error     // first sink write error; surfaced by Close
}

// New returns a tracer over the given sinks. coreGHz converts cycles to
// the microseconds of the Chrome timeline. Both o.EpochCycles and
// coreGHz must be positive; nuba.Run fills a zero EpochCycles in from
// the configuration's MDR epoch.
func New(o Options, coreGHz float64) *Tracer {
	if o.EpochCycles <= 0 {
		panic("trace: EpochCycles must be positive")
	}
	if !(coreGHz > 0) {
		panic("trace: core clock must be positive")
	}
	return &Tracer{epoch: o.EpochCycles, ghz: coreGHz, series: o.Series, chrome: o.Chrome}
}

// EpochCycles returns the sampling interval.
func (t *Tracer) EpochCycles() sim.Cycle { return t.epoch }

// Close finishes the Chrome JSON array and returns the first write error
// encountered on either sink.
func (t *Tracer) Close() error {
	if t.chrome != nil && t.err == nil {
		if t.chromeEvents == 0 {
			t.write(t.chrome, "[]\n")
		} else {
			t.write(t.chrome, "\n]\n")
		}
	}
	return t.err
}

func (t *Tracer) write(w io.Writer, s string) {
	if t.err != nil {
		return
	}
	if _, err := io.WriteString(w, s); err != nil {
		t.err = err
	}
}

func (t *Tracer) emitSeries(r *rec) {
	if t.series == nil {
		return
	}
	t.write(t.series, r.close()+"\n")
}

func (t *Tracer) emitChrome(r *rec) {
	if t.chrome == nil {
		return
	}
	sep := ",\n"
	if t.chromeEvents == 0 {
		sep = "[\n"
	}
	t.chromeEvents++
	t.write(t.chrome, sep+r.close())
}

// us converts a core-cycle timestamp to Chrome-timeline microseconds.
func (t *Tracer) us(c sim.Cycle) float64 { return float64(c) / (t.ghz * 1000) }

// Meta identifies the traced run; emitted once, first.
type Meta struct {
	Bench      string // benchmark abbreviation (or a caller-chosen label)
	Config     string // Config.Name()
	Partitions int
}

// Begin emits the stream headers: the NDJSON meta record and the Chrome
// process/thread naming metadata. Call once, before any other event.
func (t *Tracer) Begin(m Meta) {
	r := newRec()
	r.str("type", "meta")
	r.str("schema", SchemaVersion)
	r.str("bench", m.Bench)
	r.str("config", m.Config)
	r.int("partitions", int64(m.Partitions))
	r.int("epoch_cycles", t.epoch)
	r.f6("core_ghz", t.ghz)
	t.emitSeries(r)

	t.chromeMeta("process_name", -1, "nubasim "+m.Bench+" on "+m.Config)
	t.chromeMeta("thread_name", tidKernels, "kernels")
	t.chromeMeta("thread_name", tidMDR, "MDR epochs")
	t.chromeMeta("thread_name", tidPlacement, "page placement")
}

// Chrome thread IDs: one lane per span family.
const (
	tidKernels   = 0
	tidMDR       = 1
	tidPlacement = 2
)

func (t *Tracer) chromeMeta(name string, tid int, value string) {
	r := newRec()
	r.str("name", name)
	r.str("ph", "M")
	r.int("pid", 0)
	if tid >= 0 {
		r.int("tid", int64(tid))
	}
	r.obj("args", func(a *rec) { a.str("name", value) })
	t.emitChrome(r)
}

// EpochSample is one sample of the epoch time series. Counters are
// deltas over the sampled window (Cycles long, shorter than EpochCycles
// only for the final partial sample); occupancies are instantaneous at
// the sample boundary.
type EpochSample struct {
	Epoch  int64     // 1-based sample ordinal
	Cycle  sim.Cycle // sample boundary (end of the window)
	Cycles int64     // window length in cycles

	NPB         float64   // Normalized Page Balance, Equation 1
	PartBalance []float64 // per-partition P_i / max P_j (NPB components)

	LMROcc float64 // mean LMR queue depth per LLC slice
	RMROcc float64 // mean RMR queue depth per LLC slice

	NoCOcc   int64   // messages buffered at crossbar inputs
	NoCUtil  float64 // fraction of nominal aggregate injection bandwidth
	NoCBytes int64   // payload bytes accepted by the NoC this window

	LLCHitRate      float64 // LLC hits / accesses this window
	LLCMissRate     float64
	RepHitRate      float64 // replica-served / (local+remote) accesses
	RepliesPerCycle float64 // data replies to SMs per cycle
	LocalFrac       float64 // local / (local+remote) accesses

	DRAMGroupBusy []float64 // per-bank-group data-bus busy fraction

	HaveMDR        bool // MDR controller active (gates MDRReplicating)
	MDRReplicating bool // replication active at the sample boundary
}

// EpochSample emits one time-series sample, plus Chrome counter tracks
// for NPB and perceived bandwidth.
func (t *Tracer) EpochSample(s EpochSample) {
	r := newRec()
	r.str("type", "epoch")
	r.int("epoch", s.Epoch)
	r.int("cycle", s.Cycle)
	r.int("cycles", s.Cycles)
	r.f6("npb", s.NPB)
	r.arrF6("part_balance", s.PartBalance)
	r.f6("lmr_occ", s.LMROcc)
	r.f6("rmr_occ", s.RMROcc)
	r.int("noc_occ", s.NoCOcc)
	r.f6("noc_util", s.NoCUtil)
	r.int("noc_bytes", s.NoCBytes)
	r.f6("llc_hit_rate", s.LLCHitRate)
	r.f6("llc_miss_rate", s.LLCMissRate)
	r.f6("rep_hit_rate", s.RepHitRate)
	r.f6("replies_per_cycle", s.RepliesPerCycle)
	r.f6("local_frac", s.LocalFrac)
	r.arrF6("dram_group_busy", s.DRAMGroupBusy)
	if s.HaveMDR {
		r.bool("mdr_replicating", s.MDRReplicating)
	}
	t.emitSeries(r)

	t.counter(s.Cycle, "npb", s.NPB)
	t.counter(s.Cycle, "replies_per_cycle", s.RepliesPerCycle)
}

func (t *Tracer) counter(now sim.Cycle, name string, v float64) {
	r := newRec()
	r.str("name", name)
	r.str("ph", "C")
	r.int("pid", 0)
	r.f3("ts", t.us(now))
	r.obj("args", func(a *rec) { a.f6(name, v) })
	t.emitChrome(r)
}

// MDRDecision records one epoch-boundary evaluation of the MDR
// controller: the two model predictions, the bandwidth actually
// observed over the ending epoch, and the decision taken.
type MDRDecision struct {
	Cycle       sim.Cycle // epoch boundary
	Epoch       int64     // decision ordinal (1-based)
	Replicating bool      // mode that ruled the ending epoch
	Next        bool      // decision for the next epoch
	Held        bool      // too few profile samples: prior decision kept

	PredNoRepBPC   float64   // ModelNoRep output, bytes/cycle (valid unless Held)
	PredFullRepBPC float64   // ModelFullRep output, bytes/cycle (valid unless Held)
	ObservedBPC    float64   // measured reply bandwidth of the ending epoch
	ApplyAt        sim.Cycle // cycle Next takes effect (valid unless Held)
}

// MDRDecision emits the decision record and closes the ending epoch's
// span on the Chrome MDR lane.
func (t *Tracer) MDRDecision(d MDRDecision) {
	r := newRec()
	r.str("type", "mdr")
	r.int("cycle", d.Cycle)
	r.int("epoch", d.Epoch)
	r.str("decision", decisionName(d.Next))
	r.bool("held", d.Held)
	if !d.Held {
		r.f6("pred_norep_bpc", d.PredNoRepBPC)
		r.f6("pred_fullrep_bpc", d.PredFullRepBPC)
		r.int("apply_at", d.ApplyAt)
	}
	r.f6("observed_bpc", d.ObservedBPC)
	t.emitSeries(r)

	c := newRec()
	c.str("name", "MDR epoch ("+decisionName(d.Replicating)+")")
	c.str("cat", "mdr")
	c.str("ph", "X")
	c.int("pid", 0)
	c.int("tid", tidMDR)
	c.f3("ts", t.us(t.lastMDREnd))
	c.f3("dur", t.us(d.Cycle)-t.us(t.lastMDREnd))
	c.obj("args", func(a *rec) {
		a.str("decision", decisionName(d.Next))
		a.bool("held", d.Held)
		a.f6("pred_norep_bpc", d.PredNoRepBPC)
		a.f6("pred_fullrep_bpc", d.PredFullRepBPC)
		a.f6("observed_bpc", d.ObservedBPC)
	})
	t.emitChrome(c)
	t.lastMDREnd = d.Cycle
}

func decisionName(replicate bool) string {
	if replicate {
		return "replicate"
	}
	return "no-rep"
}

// KernelSpan records one completed kernel launch (including its
// kernel-boundary coherence flush).
func (t *Tracer) KernelSpan(name string, seq int, start, end sim.Cycle) {
	r := newRec()
	r.str("type", "kernel")
	r.str("name", name)
	r.int("seq", int64(seq))
	r.int("cycle", start)
	r.int("end_cycle", end)
	t.emitSeries(r)

	c := newRec()
	c.str("name", "kernel "+name)
	c.str("cat", "kernel")
	c.str("ph", "X")
	c.int("pid", 0)
	c.int("tid", tidKernels)
	c.f3("ts", t.us(start))
	c.f3("dur", t.us(end)-t.us(start))
	c.obj("args", func(a *rec) { a.int("seq", int64(seq)) })
	t.emitChrome(c)
}

// PageMigration records the migration policy rehoming a page.
func (t *Tracer) PageMigration(now sim.Cycle, vpn uint64, from, to int) {
	r := newRec()
	r.str("type", "migration")
	r.int("cycle", now)
	r.uint("vpn", vpn)
	r.int("from", int64(from))
	r.int("to", int64(to))
	t.emitSeries(r)
	t.placementInstant(now, "migrate page", func(a *rec) {
		a.uint("vpn", vpn)
		a.int("from", int64(from))
		a.int("to", int64(to))
	})
}

// PageReplication records the page-replication policy granting a
// partition its own copy of a page.
func (t *Tracer) PageReplication(now sim.Cycle, vpn uint64, part int) {
	r := newRec()
	r.str("type", "page_replication")
	r.int("cycle", now)
	r.uint("vpn", vpn)
	r.int("part", int64(part))
	t.emitSeries(r)
	t.placementInstant(now, "replicate page", func(a *rec) {
		a.uint("vpn", vpn)
		a.int("part", int64(part))
	})
}

// ReplicaCollapse records a store collapsing every replica of a page.
func (t *Tracer) ReplicaCollapse(now sim.Cycle, vpn uint64) {
	r := newRec()
	r.str("type", "collapse")
	r.int("cycle", now)
	r.uint("vpn", vpn)
	t.emitSeries(r)
	t.placementInstant(now, "collapse replicas", func(a *rec) { a.uint("vpn", vpn) })
}

func (t *Tracer) placementInstant(now sim.Cycle, name string, args func(*rec)) {
	r := newRec()
	r.str("name", name)
	r.str("cat", "placement")
	r.str("ph", "i")
	r.str("s", "t")
	r.int("pid", 0)
	r.int("tid", tidPlacement)
	r.f3("ts", t.us(now))
	r.obj("args", args)
	t.emitChrome(r)
}

// rec builds one JSON object with hand-ordered fields, pinning the
// emitted byte stream to the documented schema.
type rec struct {
	b     strings.Builder
	first bool
}

func newRec() *rec {
	r := &rec{first: true}
	r.b.WriteByte('{')
	return r
}

func (r *rec) key(k string) {
	if r.first {
		r.first = false
	} else {
		r.b.WriteByte(',')
	}
	r.b.WriteByte('"')
	r.b.WriteString(k)
	r.b.WriteString(`":`)
}

func (r *rec) str(k, v string)       { r.key(k); r.b.WriteString(strconv.Quote(v)) }
func (r *rec) int(k string, v int64) { r.key(k); r.b.WriteString(strconv.FormatInt(v, 10)) }
func (r *rec) uint(k string, v uint64) {
	r.key(k)
	r.b.WriteString(strconv.FormatUint(v, 10))
}
func (r *rec) f6(k string, v float64) { r.key(k); r.b.WriteString(fmtFloat(v, 6)) }
func (r *rec) f3(k string, v float64) { r.key(k); r.b.WriteString(fmtFloat(v, 3)) }
func (r *rec) bool(k string, v bool) {
	r.key(k)
	r.b.WriteString(strconv.FormatBool(v))
}

func (r *rec) arrF6(k string, vs []float64) {
	r.key(k)
	r.b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			r.b.WriteByte(',')
		}
		r.b.WriteString(fmtFloat(v, 6))
	}
	r.b.WriteByte(']')
}

func (r *rec) obj(k string, fill func(*rec)) {
	r.key(k)
	sub := newRec()
	fill(sub)
	r.b.WriteString(sub.close())
}

func (r *rec) close() string {
	r.b.WriteByte('}')
	return r.b.String()
}

// fmtFloat renders a float at fixed precision; non-finite values (which
// a correct probe never produces) degrade to 0 rather than break the
// JSON.
func fmtFloat(v float64, prec int) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

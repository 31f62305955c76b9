// Package metrics collects the statistics the NUBA paper reports: IPC,
// perceived memory bandwidth (replies/cycle), L1 miss breakdowns into
// local vs. remote vs. replicated accesses, LLC hit rates, NoC traffic and
// page-sharing histograms (Figure 3).
package metrics

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"
)

// Stats aggregates the counters of one simulation run. Components hold a
// pointer to the run's Stats and bump fields directly; everything is a
// plain int64/float64 and a run has exactly one Stats, written by the
// one goroutine that simulates it, so there is no synchronization.
type Stats struct {
	// Cycles is the total simulated core cycles.
	Cycles int64
	// Instructions is the number of warp instructions executed
	// (one warp instruction counts once, not 32 times).
	Instructions int64
	// ThreadInstructions counts per-thread instructions (warp size times
	// active lanes), the unit the paper's "1 billion instructions" uses.
	ThreadInstructions int64

	// L1Accesses / L1Hits / L1Misses count line-granularity L1 lookups.
	L1Accesses int64
	L1Hits     int64
	L1Misses   int64

	// Breakdown of L1 misses by where they were serviced (Figure 9).
	LocalAccesses      int64 // serviced by a local LLC slice / channel
	RemoteAccesses     int64 // crossed the inter-partition NoC
	ReplicatedAccesses int64 // serviced through a local replica (subset of Local)

	// LLCAccesses / LLCHits / LLCMisses count LLC tag lookups.
	LLCAccesses int64
	LLCHits     int64
	LLCMisses   int64

	// Replies is the number of data replies delivered to SMs; Replies per
	// cycle is the paper's "perceived bandwidth" metric (Figure 8).
	Replies int64

	// DRAMReads / DRAMWrites count 128 B DRAM data bursts.
	DRAMReads  int64
	DRAMWrites int64
	// DRAMRowHits / DRAMRowMisses classify bank activity.
	DRAMRowHits   int64
	DRAMRowMisses int64

	// NoCFlits is the total serialization cycles consumed on NoC ports;
	// NoCBytes the payload bytes; both feed the NoC energy model.
	NoCFlits int64
	NoCBytes int64
	// LocalLinkBytes is traffic on NUBA point-to-point links (not NoC).
	LocalLinkBytes int64

	// CoherenceInvalidations counts SM-side UBA cross-partition
	// invalidations; CoherenceTraffic their bytes.
	CoherenceInvalidations int64
	CoherenceTraffic       int64

	// PageFaults is the number of first-touch page faults taken;
	// PageMigrations counts pages moved by the migration policy;
	// PageReplicas counts page-granularity replicas created (§7.6).
	PageFaults     int64
	PageMigrations int64
	PageReplicas   int64

	// TLBAccesses/TLBMisses for the L1 TLB; L2TLBAccesses/L2TLBMisses for
	// the shared second-level TLB; PageWalks completed walks.
	TLBAccesses   int64
	TLBMisses     int64
	L2TLBAccesses int64
	L2TLBMisses   int64
	PageWalks     int64

	// MDRDecisions counts epoch evaluations; MDREpochsReplicating those
	// that chose replication.
	MDRDecisions         int64
	MDREpochsReplicating int64

	// MemLatencySum/MemLatencyCount give average round-trip latency of L1
	// misses in cycles.
	MemLatencySum   int64
	MemLatencyCount int64

	// Energy in nanojoules, derived from the counters above by the energy
	// model (energy.Compute) after a run drains; the cycle loop leaves
	// these zero.
	NoCEnergyNJ    float64
	DRAMEnergyNJ   float64
	CoreEnergyNJ   float64
	LLCEnergyNJ    float64
	StaticEnergyNJ float64
}

// Digest is FNV-1a over every counter, name and value, in declaration
// order: two runs share a digest exactly when they share every simulated
// statistic (testdata/suite_digests.txt). The five energy fields are
// hashed as zero, since they are derived from the counters, so a run's
// digest is the same before and after the energy model fills them.
func (s *Stats) Digest() uint64 {
	c := *s
	c.NoCEnergyNJ, c.DRAMEnergyNJ, c.CoreEnergyNJ, c.LLCEnergyNJ, c.StaticEnergyNJ = 0, 0, 0, 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
}

// IPC returns warp instructions per cycle across the whole GPU.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// RepliesPerCycle returns the perceived memory bandwidth metric of
// Figure 8: data replies delivered to SMs per core cycle.
func (s *Stats) RepliesPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Replies) / float64(s.Cycles)
}

// L1MissRate returns misses per L1 access.
func (s *Stats) L1MissRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.L1Accesses)
}

// LLCHitRate returns hits per LLC access.
func (s *Stats) LLCHitRate() float64 {
	if s.LLCAccesses == 0 {
		return 0
	}
	return float64(s.LLCHits) / float64(s.LLCAccesses)
}

// LocalFraction returns the fraction of serviced L1 misses that stayed
// within their partition (Figure 9's "local" share).
func (s *Stats) LocalFraction() float64 {
	t := s.LocalAccesses + s.RemoteAccesses
	if t == 0 {
		return 0
	}
	return float64(s.LocalAccesses) / float64(t)
}

// AvgMemLatency returns the mean L1-miss round-trip latency in cycles.
func (s *Stats) AvgMemLatency() float64 {
	if s.MemLatencyCount == 0 {
		return 0
	}
	return float64(s.MemLatencySum) / float64(s.MemLatencyCount)
}

// TotalEnergyNJ returns the sum of all energy components.
func (s *Stats) TotalEnergyNJ() float64 {
	return s.NoCEnergyNJ + s.DRAMEnergyNJ + s.CoreEnergyNJ + s.LLCEnergyNJ + s.StaticEnergyNJ
}

// NoCPowerW returns the run's average NoC power in watts, given the core
// clock in GHz that its Cycles count.
func (s *Stats) NoCPowerW(coreClockGHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	seconds := float64(s.Cycles) / (coreClockGHz * 1e9)
	return s.NoCEnergyNJ * 1e-9 / seconds
}

// SharingHistogram records, for each memory page, how many distinct SMs
// accessed it — the raw data behind Figure 3. Each page has one bitset of
// SMs, words uint64s wide, in sets at the page's first-touch index.
type SharingHistogram struct {
	index map[uint64]int
	words int
	sets  []uint64
}

// NewSharingHistogram returns an empty histogram.
func NewSharingHistogram() *SharingHistogram {
	return &SharingHistogram{index: make(map[uint64]int), words: 1}
}

// Touch records that sm accessed page (a virtual page number).
func (h *SharingHistogram) Touch(page uint64, sm int) {
	w := sm / 64
	if w >= h.words {
		h.widen(w + 1)
	}
	i, ok := h.index[page]
	if !ok {
		i = len(h.sets) / h.words
		h.index[page] = i
		h.sets = append(h.sets, make([]uint64, h.words)...)
	}
	h.sets[i*h.words+w] |= 1 << uint(sm%64)
}

// widen re-lays every page's bitset out words uint64s wide, for an SM
// beyond the widest seen so far.
func (h *SharingHistogram) widen(words int) {
	sets := make([]uint64, len(h.sets)/h.words*words)
	for i := 0; i < len(h.sets)/h.words; i++ {
		copy(sets[i*words:], h.sets[i*h.words:(i+1)*h.words])
	}
	h.sets, h.words = sets, words
}

// Pages returns the number of distinct pages touched.
func (h *SharingHistogram) Pages() int { return len(h.index) }

// Buckets classifies pages by sharer count into the paper's Figure 3
// buckets: 1, 2–10, 11–25, 26–64 SMs. Fractions sum to 1 over touched pages.
func (h *SharingHistogram) Buckets() (one, twoTo10, elevenTo25, over25 float64) {
	n := len(h.index)
	if n == 0 {
		return 0, 0, 0, 0
	}
	var c1, c2, c3, c4 int
	for i := 0; i < len(h.sets); i += h.words {
		k := 0
		for _, w := range h.sets[i : i+h.words] {
			k += bits.OnesCount64(w)
		}
		switch {
		case k <= 1:
			c1++
		case k <= 10:
			c2++
		case k <= 25:
			c3++
		default:
			c4++
		}
	}
	f := 1.0 / float64(n)
	return float64(c1) * f, float64(c2) * f, float64(c3) * f, float64(c4) * f
}

// SharedFraction returns the fraction of pages accessed by more than one SM.
func (h *SharingHistogram) SharedFraction() float64 {
	one, _, _, _ := h.Buckets()
	if h.Pages() == 0 {
		return 0
	}
	return 1 - one
}

// Table is a minimal fixed-width text table used by the experiment harness
// to print paper-style result rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// HarmonicMeanSpeedup implements the paper's averaging methodology:
// average speedup is the harmonic mean of per-benchmark speedups, reported
// as a percentage improvement.
func HarmonicMeanSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	var inv float64
	for _, s := range speedups {
		if s <= 0 {
			return 0
		}
		inv += 1 / s
	}
	return float64(len(speedups)) / inv
}

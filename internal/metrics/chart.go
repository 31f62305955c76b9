package metrics

import (
	"fmt"
	"math"
	"strings"
)

// DetailTable renders the single-run deep-dive table: the secondary
// counters that a run's headline summary (IPC, bandwidth, hit rates)
// omits — per-thread instruction counts, the L1/TLB hit breakdowns, NoC
// serialization and UBA coherence traffic. Every Stats counter must be
// consumed by a reporting surface (metrics-liveness, internal/lint); this
// table is that surface for the counters below.
func DetailTable(s *Stats) string {
	t := &Table{Header: []string{"counter", "value", "note"}}
	row := func(name string, v int64, note string) {
		t.AddRow(name, fmt.Sprintf("%d", v), note)
	}
	rate := func(part, whole int64) string {
		if whole == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.3f", float64(part)/float64(whole))
	}
	row("thread_instructions", s.ThreadInstructions, "per-lane instruction count")
	row("l1_hits", s.L1Hits, "hit rate "+rate(s.L1Hits, s.L1Accesses))
	row("llc_misses", s.LLCMisses, "miss rate "+rate(s.LLCMisses, s.LLCAccesses))
	row("noc_flits", s.NoCFlits, "port serialization cycles")
	row("coherence_invalidations", s.CoherenceInvalidations, "UBA cross-partition invalidations")
	row("coherence_traffic_bytes", s.CoherenceTraffic, "invalidation payload bytes")
	row("l1_tlb_accesses", s.TLBAccesses, "miss rate "+rate(s.TLBMisses, s.TLBAccesses))
	row("l1_tlb_misses", s.TLBMisses, "")
	row("l2_tlb_accesses", s.L2TLBAccesses, "miss rate "+rate(s.L2TLBMisses, s.L2TLBAccesses))
	row("l2_tlb_misses", s.L2TLBMisses, "")
	return t.String()
}

// LineChart renders an ASCII time series: samples are bucketed into
// Width columns by x and drawn as one dot per column at the scaled mean
// y. It is the terminal stand-in for the paper's over-time figures
// (e.g. the Fig. 9-style NPB curve from an epoch trace).
type LineChart struct {
	Title string
	// Width and Height are the plot area in characters (default 64x10).
	Width, Height int
	xs, ys        []float64
}

// Add appends one (x, y) sample. Samples need not arrive ordered.
func (c *LineChart) Add(x, y float64) {
	c.xs = append(c.xs, x)
	c.ys = append(c.ys, y)
}

// String renders the chart. A flat series (max y == min y, including
// all samples equal or a single sample) is drawn on the middle row with
// the constant labeled on every axis tick — scaling by the zero range
// would otherwise turn every row label into NaN.
func (c *LineChart) String() string {
	if len(c.xs) == 0 {
		return c.Title + " (no data)\n"
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 10
	}
	minX, maxX := c.xs[0], c.xs[0]
	minY, maxY := c.ys[0], c.ys[0]
	for i := range c.xs {
		minX, maxX = math.Min(minX, c.xs[i]), math.Max(maxX, c.xs[i])
		minY, maxY = math.Min(minY, c.ys[i]), math.Max(maxY, c.ys[i])
	}
	// Bucket samples into columns (mean y per column).
	sum := make([]float64, w)
	cnt := make([]int, w)
	for i, x := range c.xs {
		col := 0
		if maxX > minX {
			col = int((x - minX) / (maxX - minX) * float64(w-1))
		}
		sum[col] += c.ys[i]
		cnt[col]++
	}
	// rowOf maps a y value to a grid row (0 = top). The flat-series
	// guard: with a zero y range every value sits on the middle row.
	rowOf := func(v float64) int {
		if maxY == minY {
			return h / 2
		}
		r := int(math.Round((maxY - v) / (maxY - minY) * float64(h-1)))
		if r < 0 {
			r = 0
		}
		if r > h-1 {
			r = h - 1
		}
		return r
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for col := 0; col < w; col++ {
		if cnt[col] == 0 {
			continue
		}
		grid[rowOf(sum[col]/float64(cnt[col]))][col] = '*'
	}
	// labelOf gives each row's axis value; for a flat series that is
	// the constant itself, not a divided-by-zero artifact.
	labelOf := func(r int) float64 {
		if maxY == minY {
			return minY
		}
		return maxY - (maxY-minY)*float64(r)/float64(h-1)
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	for r := 0; r < h; r++ {
		label := ""
		if r == 0 || r == h-1 || r == h/2 {
			label = fmt.Sprintf("%.4g", labelOf(r))
		}
		fmt.Fprintf(&b, "%10s |%s\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", w/2, minX, w-w/2, maxX)
	return b.String()
}

// BarChart renders a horizontal ASCII bar chart, the terminal stand-in
// for the paper's figures. Negative values extend left of the axis.
type BarChart struct {
	Title string
	// Width is the maximum bar length in characters (default 40).
	Width  int
	labels []string
	values []float64
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart.
func (c *BarChart) String() string {
	if len(c.values) == 0 {
		return c.Title + " (no data)\n"
	}
	width := c.Width
	if width <= 0 {
		width = 40
	}
	var maxAbs float64
	labelW := 0
	for i, v := range c.values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		if len(c.labels[i]) > labelW {
			labelW = len(c.labels[i])
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	for i, v := range c.values {
		n := int(math.Round(math.Abs(v) / maxAbs * float64(width)))
		bar := strings.Repeat("#", n)
		if v < 0 {
			fmt.Fprintf(&b, "%-*s -|%s %.1f\n", labelW, c.labels[i], bar, v)
		} else {
			fmt.Fprintf(&b, "%-*s  |%s %.1f\n", labelW, c.labels[i], bar, v)
		}
	}
	return b.String()
}

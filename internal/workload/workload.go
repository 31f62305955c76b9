// Package workload re-creates the paper's 29-benchmark suite (Table 2) as
// kernels in the kir intermediate representation. Each benchmark is built
// from one of ten kernel templates (streaming, 2D stencil, matrix-vector,
// tiled GEMM, DNN convolution, RNN cell, MapReduce hashing, pointer-chase
// gather, clustering and wavefront) parameterized to reproduce the
// benchmark's defining properties:
//
//   - the page-sharing degree across SMs (Figure 3's low/high classes),
//   - the ratio of memory footprint to aggregate LLC capacity,
//   - the read-only shared footprint (Table 2's right column),
//   - the compute-to-memory ratio (bandwidth sensitivity).
//
// Footprints are scaled from the paper's gigabyte-class inputs to
// megabyte-class inputs so a simulation finishes in seconds; the scaling
// preserves each benchmark's relationship to the 6 MB LLC (streaming
// benchmarks stay far larger than the LLC, the DNN working sets stay
// comparable to it), which is what NUBA's mechanisms respond to.
package workload

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Alloc reserves a page-aligned virtual range of the given byte size and
// returns its base address (implemented by core.GPU.NewBuffer).
type Alloc func(size uint64) uint64

// Benchmark describes one suite entry.
type Benchmark struct {
	// Name and Abbr follow Table 2.
	Name string
	Abbr string
	// High marks the high-sharing class of Figure 3.
	High bool
	// PaperMB / PaperROMB are Table 2's footprints, for documentation
	// and the Table 2 report.
	PaperMB   float64
	PaperROMB float64
	// Build produces the benchmark's kernel launches.
	Build func(alloc Alloc) ([]*kir.Launch, error)
}

// MB is 2^20 bytes.
const MB = 1 << 20

// CTAThreads is the CTA size used across the suite (8 warps).
const CTAThreads = 256

// hashValue is the value model for buffers holding synthetic keys or
// irregular indices: element i reads as a well-mixed function of i, so
// data-dependent addressing is reproducible without storing data.
func hashValue(i int64) int64 { return int64(sim.Mix(uint64(i))) }

// Suite returns the full 29-benchmark suite in Table 2 order.
func Suite() []Benchmark { return suite }

// LowSharing returns the low-sharing benchmarks.
func LowSharing() []Benchmark { return filter(false) }

// HighSharing returns the high-sharing benchmarks.
func HighSharing() []Benchmark { return filter(true) }

func filter(high bool) []Benchmark {
	var out []Benchmark
	for _, b := range suite {
		if b.High == high {
			out = append(out, b)
		}
	}
	return out
}

// ByAbbr returns the benchmark with the given abbreviation, in any case.
func ByAbbr(abbr string) (Benchmark, error) {
	for _, b := range suite {
		if strings.EqualFold(b.Abbr, abbr) {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", abbr)
}

// launch builds a validated Launch.
func launch(k *kir.Kernel, grid int, scalars []int64, bufs []kir.Binding) (*kir.Launch, error) {
	l := &kir.Launch{Kernel: k, GridDim: grid, CTAThreads: CTAThreads, Scalars: scalars, Buffers: bufs}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// buf is a shorthand Binding constructor.
func buf(base, size uint64) kir.Binding { return kir.Binding{Base: base, Size: size} }

// hbuf is a Binding whose loads return hashed values.
func hbuf(base, size uint64) kir.Binding {
	return kir.Binding{Base: base, Size: size, Value: hashValue}
}

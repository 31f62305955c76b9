// Customkernel shows the low-level API: write a kernel in the PTX-like
// IR, let the compiler's data-flow analysis mark read-only buffers, and
// run it on a NUBA system with custom buffer bindings.
//
//	go run ./examples/customkernel
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/nuba-gpu/nuba"
)

// A dot-product-style kernel: every thread reads a private stripe of A
// and the whole shared vector V (read-only — the analysis will rewrite
// its loads to ld.global.ro, making them replication candidates).
const src = `
.kernel dotstripe
.param .ptr A
.param .ptr V
.param .ptr OUT
.param .u64 k
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, %ntid, r0
  mul r3, r2, k
  mov r4, 0
  mov r5, 0
loop:
  add r6, r3, r4
  shl r6, r6, 3
  ld.global.u64 r7, [A + r6]
  shl r8, r4, 3
  ld.global.u64 r9, [V + r8]
  mad r5, r7, r9, r5
  add r4, r4, 1
  setp.lt p0, r4, k
  @p0 bra loop
  shl r10, r2, 3
  st.global.u64 [OUT + r10], r5
  exit
`

func main() {
	kernel, err := nuba.ParseKernel(src)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range kernel.Buffers {
		fmt.Printf("buffer %-4s read-only=%v\n", b.Name, b.ReadOnly)
	}

	cfg := nuba.NUBAConfig().Scale(0.25) // 16 SMs for a fast demo
	const (
		grid = 128
		k    = 16
	)
	custom := nuba.Benchmark{Abbr: "custom", Build: func(alloc nuba.Alloc) ([]*nuba.Launch, error) {
		n := uint64(grid * 256)
		asize := n * k * 8
		vsize := uint64(k * 8)
		l := &nuba.Launch{
			Kernel:     kernel,
			GridDim:    grid,
			CTAThreads: 256,
			Scalars:    []int64{k},
			Buffers: []nuba.Binding{
				{Base: alloc(asize), Size: asize},
				{Base: alloc(vsize), Size: vsize},
				{Base: alloc(n * 8), Size: n * 8},
			},
		}
		return []*nuba.Launch{l}, nil
	}}
	res, err := nuba.Run(context.Background(), cfg, custom)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncycles=%d ipc=%.2f local=%.2f replies/cyc=%.3f\n",
		res.Stats.Cycles, res.Stats.IPC(), res.Stats.LocalFraction(), res.Stats.RepliesPerCycle())
}

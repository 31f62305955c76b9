package workload

import "github.com/nuba-gpu/nuba/internal/kir"

// The kernel templates. All are parsed and run through the read-only
// data-flow analysis at package init; the analysis rewrites loads of
// never-written buffers into ld.global.ro exactly as the paper's compiler
// pass does, so every benchmark automatically carries the replication
// hints MDR consumes.
//
// Performance-shaping notes (what makes the NUBA comparison meaningful):
//
//   - Purely compulsory streams are DRAM-bound on every architecture, so
//     the streaming templates take a `passes` knob: repeated sweeps over
//     the CTA's tile create L1-capacity misses that the LLC services —
//     the traffic class whose bandwidth differs between a 1.4 TB/s
//     crossbar (UBA) and 2.8 TB/s local links (NUBA).
//   - The DNN template spreads each warp's lanes over a sliding window
//     larger than the L1: every SM re-reads the shared window through
//     the LLC at high rate, saturating the UBA crossbar — the paper's
//     high-sharing replication-win pattern. Window size relative to a
//     partition's slice capacity decides whether replication helps
//     (AN/SN/RN) or thrashes (GRU), which is exactly the trade-off MDR
//     arbitrates.

// kStream: CTA-tiled streaming with a tunable per-element compute loop
// and `passes` repeated sweeps over the tile. Each CTA owns a contiguous
// tile of ntid*iters elements, so accesses are coalesced within warps and
// pages are private to the owning SM under contiguous CTA assignment.
var kStream = kir.MustParse(`
.kernel stream
.param .ptr A
.param .ptr B
.param .u64 iters
.param .u64 cwork
.param .u64 passes
  mov r0, %tid
  mov r1, %ctaid
  mov r2, %ntid
  mul r3, r1, r2
  mul r3, r3, iters
  add r3, r3, r0
  mov r9, 0
ploop:
  mov r4, 0
loop:
  mad r5, r4, r2, r3
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  mov r8, 0
comp:
  fma r7, r7
  add r8, r8, 1
  setp.lt p0, r8, cwork
  @p0 bra comp
  st.global.u64 [B + r6], r7
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  add r9, r9, 1
  setp.lt p0, r9, passes
  @p0 bra ploop
  exit
`)

// kStencil2D: five-point stencil over a rows-per-CTA tile, swept `passes`
// times; boundary rows are shared with adjacent CTAs (mostly the same SM).
var kStencil2D = kir.MustParse(`
.kernel stencil2d
.param .ptr A
.param .ptr B
.param .u64 rows
.param .u64 width
.param .u64 passes
  mov r0, %tid
  mov r1, %ctaid
  mul r2, r1, rows
  mov r14, 0
ploop:
  mov r3, 0
loop:
  add r4, r2, r3
  mad r5, r4, width, r0
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  add r8, r6, 8
  ld.global.u64 r9, [A + r8]
  sub r8, r6, 8
  max r8, r8, 0
  ld.global.u64 r10, [A + r8]
  add r11, r5, width
  shl r11, r11, 3
  ld.global.u64 r12, [A + r11]
  sub r11, r5, width
  max r11, r11, 0
  shl r11, r11, 3
  ld.global.u64 r13, [A + r11]
  add r7, r7, r9
  add r7, r7, r10
  add r7, r7, r12
  add r7, r7, r13
  fma r7, r7
  st.global.u64 [B + r6], r7
  add r3, r3, 1
  setp.lt p0, r3, rows
  @p0 bra loop
  add r14, r14, 1
  setp.lt p0, r14, passes
  @p0 bra ploop
  exit
`)

// kMatvec: y = A*x with A stored column-major so lanes coalesce over
// rows; the x vector is a small buffer shared (read-only) by every SM.
var kMatvec = kir.MustParse(`
.kernel matvec
.param .ptr A
.param .ptr X
.param .ptr Y
.param .u64 k
.param .u64 n
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, %ntid, r0
  mov r3, 0
  mov r4, 0
loop:
  mad r5, r3, n, r2
  shl r5, r5, 3
  ld.global.u64 r6, [A + r5]
  shl r7, r3, 3
  ld.global.u64 r8, [X + r7]
  mad r4, r6, r8, r4
  add r3, r3, 1
  setp.lt p0, r3, k
  @p0 bra loop
  shl r9, r2, 3
  st.global.u64 [Y + r9], r4
  exit
`)

// kMatvecRow: y = A*x with A row-major and one thread per row — the
// uncoalesced transposed sweep of BICG's second kernel, touching every
// page of A from a different SM than the column-major first kernel.
var kMatvecRow = kir.MustParse(`
.kernel matvecrow
.param .ptr A
.param .ptr X
.param .ptr Y
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
  ld.global.u64 r9, [X + r8]
  mad r5, r7, r9, r5
  add r4, r4, 1
  setp.lt p0, r4, k
  @p0 bra loop
  shl r10, r2, 3
  st.global.u64 [Y + r10], r5
  exit
`)

// kGemm: C = A*B; each thread computes one C element. A rows broadcast
// (warp-uniform loads), B rows are read by every CTA row — the shared
// read-only panels that make GEMM-family benchmarks high-sharing, with a
// small lockstep window (the k sweep) that replication serves locally.
var kGemm = kir.MustParse(`
.kernel gemm
.param .ptr A
.param .ptr B
.param .ptr C
.param .u64 k
.param .u64 n
.param .u64 gj
  mov r0, %tid
  mov r1, %ctaid
  div r2, r1, gj
  rem r3, r1, gj
  mad r4, r3, %ntid, r0
  mov r5, 0
  mov r6, 0
loop:
  mad r7, r2, k, r5
  shl r7, r7, 3
  ld.global.u64 r8, [A + r7]
  mad r9, r5, n, r4
  shl r9, r9, 3
  ld.global.u64 r10, [B + r9]
  mad r6, r8, r10, r6
  add r5, r5, 1
  setp.lt p0, r5, k
  @p0 bra loop
  mad r11, r2, n, r4
  shl r11, r11, 3
  st.global.u64 [C + r11], r6
  exit
`)

// kDNNConv: a convolution/dense-layer sweep. Every thread reads `taps`
// elements of the shared input: lane l of a warp reads around
// (tid*97 mod window) inside a window that slides by `stride` per tap, so
// lanes spread over many lines (gather-style fan-out), the live working
// set is ~window elements shared by every SM, and the whole input is
// covered after taps steps. The weight vector is read warp-uniform.
var kDNNConv = kir.MustParse(`
.kernel dnnconv
.param .ptr IN
.param .ptr W
.param .ptr OUT
.param .u64 taps
.param .u64 insize
.param .u64 window
.param .u64 stride
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, %ntid, r0
  mul r10, r0, 97
  rem r10, r10, window
  mov r3, 0
  mov r4, 0
loop:
  mul r5, r3, stride
  add r5, r5, r10
  rem r5, r5, insize
  shl r5, r5, 3
  ld.global.u64 r6, [IN + r5]
  shl r7, r3, 3
  ld.global.u64 r8, [W + r7]
  mad r4, r6, r8, r4
  add r3, r3, 1
  setp.lt p0, r3, taps
  @p0 bra loop
  shl r9, r2, 3
  st.global.u64 [OUT + r9], r4
  exit
`)

// kMapReduce: the Mars-style map phase: stream private input records,
// hash, and combine into a small read-write table with atomics. Irregular
// stores, but >80% of pages (the input) stay private — the paper's
// low-sharing irregular class.
var kMapReduce = kir.MustParse(`
.kernel mapreduce
.param .ptr IN
.param .ptr TABLE
.param .u64 iters
.param .u64 tsize
  mov r0, %tid
  mov r1, %ctaid
  mul r2, r1, %ntid
  mul r2, r2, iters
  add r2, r2, r0
  mov r3, 0
loop:
  mad r4, r3, %ntid, r2
  shl r5, r4, 3
  ld.global.u64 r6, [IN + r5]
  hash r7, r6
  rem r7, r7, tsize
  shl r7, r7, 3
  atom.global.add.u64 r8, [TABLE + r7], r6
  add r3, r3, 1
  setp.lt p0, r3, iters
  @p0 bra loop
  exit
`)

// kGather: B+tree-style traversal: private keys drive depth hash-chained
// lookups into a large shared read-only tree. Upper levels are hot (small
// index range), deep levels cold — replication of the whole tree thrashes
// the LLC, the case MDR must detect.
var kGather = kir.MustParse(`
.kernel gather
.param .ptr KEYS
.param .ptr TREE
.param .ptr OUT
.param .u64 iters
.param .u64 depth
.param .u64 tsize
  mov r0, %tid
  mov r1, %ctaid
  mul r2, r1, %ntid
  mul r2, r2, iters
  add r2, r2, r0
  mov r3, 0
loop:
  mad r4, r3, %ntid, r2
  shl r5, r4, 3
  ld.global.u64 r6, [KEYS + r5]
  mov r7, r6
  mov r8, 0
walk:
  hash r7, r7
  sub r9, depth, r8
  sub r9, r9, 1
  mul r9, r9, 2
  shr r10, tsize, r9
  max r10, r10, 1
  rem r11, r7, r10
  shl r11, r11, 3
  ld.global.u64 r12, [TREE + r11]
  add r7, r7, r12
  add r8, r8, 1
  setp.lt p0, r8, depth
  @p0 bra walk
  mad r13, r3, %ntid, r2
  shl r13, r13, 3
  st.global.u64 [OUT + r13], r7
  add r3, r3, 1
  setp.lt p0, r3, iters
  @p0 bra loop
  exit
`)

// kCluster: distance computation of private streaming points against
// center windows selected per CTA group — grpdiv controls how many CTAs
// (and hence SMs and partitions) share each window, reproducing
// intermediate sharing degrees (streamcluster's 2-10 SM class); gstride
// tiles the groups across the center buffer and the per-iteration window
// advance (spread across lanes) controls the shared working-set size.
var kCluster = kir.MustParse(`
.kernel cluster
.param .ptr PTS
.param .ptr CTR
.param .ptr OUT
.param .u64 iters
.param .u64 ncent
.param .u64 grpdiv
.param .u64 gstride
.param .u64 csize
  mov r0, %tid
  mov r1, %ctaid
  mul r2, r1, %ntid
  mul r2, r2, iters
  add r2, r2, r0
  div r3, r1, grpdiv
  mul r3, r3, gstride
  mov r14, %laneid
  mov r4, 0
loop:
  mad r5, r4, %ntid, r2
  shl r6, r5, 3
  ld.global.u64 r7, [PTS + r6]
  mov r8, 0
  mov r9, 0
cloop:
  mad r10, r4, ncent, r8
  shl r10, r10, 5
  add r10, r10, r3
  add r10, r10, r14
  rem r10, r10, csize
  shl r10, r10, 3
  ld.global.u64 r11, [CTR + r10]
  sub r12, r7, r11
  mad r9, r12, r12, r9
  fma r9, r9
  add r8, r8, 1
  setp.lt p0, r8, ncent
  @p0 bra cloop
  mad r13, r4, %ntid, r2
  shl r13, r13, 3
  st.global.u64 [OUT + r13], r9
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  exit
`)

// kStencil3D: seven-point stencil with a large plane stride: the z-dim
// neighbors live a whole plane away, so CTAs far apart in schedule order
// (different SMs) touch the same pages — 3DCONV's high-sharing pattern —
// and a compute loop makes it relatively bandwidth-insensitive.
var kStencil3D = kir.MustParse(`
.kernel stencil3d
.param .ptr A
.param .ptr B
.param .u64 rows
.param .u64 width
.param .u64 plane
.param .u64 cwork
  mov r0, %tid
  mov r1, %ctaid
  mul r2, r1, rows
  mov r3, 0
loop:
  add r4, r2, r3
  mad r5, r4, width, r0
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  add r8, r5, width
  shl r8, r8, 3
  ld.global.u64 r9, [A + r8]
  sub r8, r5, width
  max r8, r8, 0
  shl r8, r8, 3
  ld.global.u64 r10, [A + r8]
  add r11, r5, plane
  shl r11, r11, 3
  ld.global.u64 r12, [A + r11]
  sub r11, r5, plane
  max r11, r11, 0
  shl r11, r11, 3
  ld.global.u64 r13, [A + r11]
  add r7, r7, r9
  add r7, r7, r10
  add r7, r7, r12
  add r7, r7, r13
  mov r8, 0
comp:
  fma r7, r7
  add r8, r8, 1
  setp.lt p0, r8, cwork
  @p0 bra comp
  st.global.u64 [B + r6], r7
  add r3, r3, 1
  setp.lt p0, r3, rows
  @p0 bra loop
  exit
`)

// kWavefront: Needleman-Wunsch-style band update: reads the shared
// read-only reference and the previous band of the read-write score
// matrix, writes the current band. One launch per band; the reference
// window shifts with the band so its pages are shared across bands' SM
// sets.
var kWavefront = kir.MustParse(`
.kernel wavefront
.param .ptr REF
.param .ptr MAT
.param .u64 band
.param .u64 width
.param .u64 refsize
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, %ntid, r0
  mad r3, band, width, r2
  shl r4, r3, 3
  sub r5, r3, width
  shl r5, r5, 3
  ld.global.u64 r6, [MAT + r5]
  sub r7, r5, 8
  max r7, r7, 0
  ld.global.u64 r8, [MAT + r7]
  mad r9, band, 12345, r2
  rem r9, r9, refsize
  shl r9, r9, 3
  ld.global.u64 r10, [REF + r9]
  mul r11, r2, 7
  mad r11, band, 54321, r11
  rem r11, r11, refsize
  shl r11, r11, 3
  ld.global.u64 r12, [REF + r11]
  add r6, r6, r8
  add r6, r6, r10
  max r6, r6, r12
  fma r6, r6
  st.global.u64 [MAT + r4], r6
  exit
`)

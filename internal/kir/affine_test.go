package kir

import (
	"fmt"
	"strings"
	"testing"
)

// The interpreter keeps a warp value uniform, affine (lane l holds
// base + stride·l) or per-lane, and evaluates ALU ops on affine values
// once per warp. FuzzExecMatchesLanes holds it to a reference that knows
// nothing of those forms: every lane runs alone, in plain int64, through
// alu, compare and the buffer wrap rule.

// fuzzOps are the mnemonics a fuzzed program draws from: every ALU op,
// every setp condition, sel, and loads, stores and atomics of both sizes.
var fuzzOps = []string{
	"mov", "add", "sub", "mul", "mad", "shl", "shr", "and", "or", "xor",
	"min", "max", "div", "rem", "hash", "fma",
	"setp.lt", "setp.le", "setp.gt", "setp.ge", "setp.eq", "setp.ne",
	"sel",
	"ld.global.u64", "ld.global.u32", "st.global.u64", "st.global.u32",
	"atom.global.add.u64", "atom.global.add.u32",
}

// fuzzOperands are the sources a fuzzed instruction draws from: eight
// registers, immediates at the edges of the ring, the two fuzzed scalar
// parameters and the special registers.
var fuzzOperands = []string{
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"0", "1", "-1", "8", "-8", "3", "63", "64",
	"-9223372036854775808", "9223372036854775807", "4611686018427387904",
	"x", "y",
	"%tid", "%laneid", "%ctaid", "%ntid", "%nctaid", "%warpid",
}

const fuzzHeader = `.kernel fz
.param .ptr A
.param .ptr B
.param .u64 x
.param .u64 y
`

// fuzzBindings places A, whose value model makes loads laneful, and B,
// which has none. A lane at index i of stride 8 from zero lands in A for
// every lane (the last just inside it) and in B for all but the last
// (which wraps): A is 32 u64 elements, B 31.
func fuzzBindings() []Binding {
	return []Binding{
		{Base: 1 << 20, Size: 32 * 8, Value: func(i int64) int64 { return i*0x5DEECE66D - 5 }},
		{Base: 1 << 24, Size: 31 * 8},
	}
}

// fuzzInstr is one instruction of a fuzzed program: a mnemonic, a
// destination, three sources and a guard. Its encoding is six bytes, one
// per field, each an index into its table taken modulo the table's length.
type fuzzInstr struct {
	op, dst, a, b, c, guard string
}

// fuzzGuards are the guards an instruction may carry.
var fuzzGuards = []string{"", "@p0", "@!p0", "@p1", "@!p1", "@p2", "@!p2", "@p3", "@!p3"}

// index returns s's position in table; an unknown name is a broken seed.
func index(table []string, s string) byte {
	for i, t := range table {
		if t == s {
			return byte(i)
		}
	}
	panic("fuzz seed names unknown field " + s)
}

// fieldAlias names, for a seed's dst and source fields, the operand whose
// index decodeProg reads as that field: a predicate pN is register rN's
// index, buffer A is r0's and B r1's, and an unused field is r0.
var fieldAlias = map[string]string{"": "r0", "A": "r0", "B": "r1", "p0": "r0", "p1": "r1", "p2": "r2", "p3": "r3"}

// encodeProg turns a readable program into fuzz input.
func encodeProg(prog ...fuzzInstr) []byte {
	field := func(s string) byte {
		if a, ok := fieldAlias[s]; ok {
			s = a
		}
		return index(fuzzOperands, s)
	}
	var b []byte
	for _, in := range prog {
		b = append(b, index(fuzzOps, in.op), field(in.dst), field(in.a), field(in.b), field(in.c), index(fuzzGuards, in.guard))
	}
	return b
}

// decodeProg renders fuzz input as kernel source, at most 48 instructions
// long and ending in exit.
func decodeProg(data []byte) string {
	var sb strings.Builder
	sb.WriteString(fuzzHeader)
	for n := 0; len(data) >= 6 && n < 48; n, data = n+1, data[6:] {
		op := fuzzOps[int(data[0])%len(fuzzOps)]
		reg := fmt.Sprintf("r%d", data[1]%8)
		pred := fmt.Sprintf("p%d", data[1]%4)
		a := fuzzOperands[int(data[2])%len(fuzzOperands)]
		b := fuzzOperands[int(data[3])%len(fuzzOperands)]
		c := fuzzOperands[int(data[4])%len(fuzzOperands)]
		buf := string("AB"[data[4]%2])
		guard := fuzzGuards[int(data[5])%len(fuzzGuards)]
		var line string
		switch {
		case strings.HasPrefix(op, "setp."):
			line = fmt.Sprintf("%s %s, %s, %s", op, pred, a, b)
		case op == "sel":
			line = fmt.Sprintf("sel %s, p%d, %s, %s", reg, data[4]%4, a, b)
		case strings.HasPrefix(op, "ld."):
			line = fmt.Sprintf("%s %s, [%s + %s]", op, reg, buf, a)
		case strings.HasPrefix(op, "st."):
			line = fmt.Sprintf("%s [%s + %s], %s", op, buf, a, b)
		case strings.HasPrefix(op, "atom."):
			line = fmt.Sprintf("%s %s, [%s + %s], %s", op, reg, buf, a, b)
		default:
			_, nsrc, err := aluOp(op)
			if err != nil {
				panic(err)
			}
			line = op + " " + strings.Join([]string{reg, a, b, c}[:nsrc+1], ", ")
		}
		if guard != "" {
			line = guard + " " + line
		}
		sb.WriteString("  " + line + "\n")
	}
	sb.WriteString("  exit\n")
	return sb.String()
}

// laneMachine is the reference: one lane's registers and predicates.
type laneMachine struct {
	regs  [MaxRegs]int64
	preds [MaxPreds]bool
}

// refWarp runs the lanes of one warp, each on its own.
type refWarp struct {
	l              *Launch
	cta, warpInCTA int
	lanes          [WarpSize]laneMachine
}

func (r *refWarp) operand(o Operand, lane int) int64 {
	m := &r.lanes[lane]
	switch o.Kind {
	case OpdReg:
		return m.regs[o.Val]
	case OpdImm:
		return o.Val
	case OpdParam:
		return r.l.Scalars[o.Val]
	case OpdSpecial:
		switch Special(o.Val) {
		case SpecTid:
			return int64(r.warpInCTA*WarpSize + lane)
		case SpecCtaid:
			return int64(r.cta)
		case SpecNtid:
			return int64(r.l.CTAThreads)
		case SpecNctaid:
			return int64(r.l.GridDim)
		case SpecWarpid:
			return int64(r.warpInCTA)
		case SpecLaneid:
			return int64(lane)
		}
	}
	return 0
}

// step executes in on every lane its guard admits and returns those lanes
// and, for a memory op, their addresses.
func (r *refWarp) step(in *Instr) (mask uint32, addrs [WarpSize]uint64) {
	for lane := range r.lanes {
		m := &r.lanes[lane]
		if in.Pred >= 0 && m.preds[in.Pred] == in.PredNeg {
			continue
		}
		mask |= 1 << uint(lane)
		a := r.operand(in.Src[0], lane)
		b := r.operand(in.Src[1], lane)
		switch in.Op {
		case OpSetp:
			m.preds[in.Dst] = compare(in.Cmp, a, b)
		case OpSel:
			if m.preds[in.PredSrc] {
				m.regs[in.Dst] = a
			} else {
				m.regs[in.Dst] = b
			}
		case OpLd, OpLdRO, OpSt, OpAtom:
			buf := r.l.Buffers[in.Buf]
			elem := uint64(in.ElemBytes)
			off := uint64(a)
			if off >= buf.Size || buf.Size-off < elem {
				off %= buf.Size
				off -= off % elem
			}
			addrs[lane] = buf.Base + off
			if in.Op != OpSt {
				m.regs[in.Dst] = 0
				if buf.Value != nil {
					m.regs[in.Dst] = buf.Value(int64(off) / int64(elem))
				}
			}
		default:
			m.regs[in.Dst] = alu(in.Op, a, b, r.operand(in.Src[2], lane))
		}
	}
	return mask, addrs
}

// runAgainstLanes executes src on warp warpInCTA of CTA cta, in the one
// context ws is fitted to, and fails at the first instruction after which a
// register lane, a predicate lane, the access mask or a guarded lane's
// address differs from the reference.
func runAgainstLanes(t *testing.T, ws *Warps, src string, x, y int64, cta, warpInCTA int) {
	t.Helper()
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	l := &Launch{Kernel: k, GridDim: 4, CTAThreads: 2 * WarpSize, Scalars: []int64{x, y}, Buffers: fuzzBindings()}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	w := &ws.Fit(l, 1)[0]
	w.Reset(l, cta, warpInCTA)
	ref := &refWarp{l: l, cta: cta, warpInCTA: warpInCTA}
	var mem MemInfo
	for !w.Exited {
		pc, in := w.PC, w.Current()
		info := w.Exec(&mem)
		if in.Op == OpExit {
			continue
		}
		mask, addrs := ref.step(in)
		where := func() string {
			return fmt.Sprintf("warp %d of CTA %d, x=%d y=%d, after instruction %d (line %d)\n%s", warpInCTA, cta, x, y, pc, in.Line, src)
		}
		if in.Op.IsMem() {
			if mask == 0 && info.Kind != StepCompute || mask != 0 && (info.Kind != StepMem || mem.Mask != mask) {
				t.Fatalf("access kind %d mask %#x, reference mask %#x: %s", info.Kind, mem.Mask, mask, where())
			}
			for lane := 0; lane < WarpSize; lane++ {
				if mask&(1<<uint(lane)) != 0 && mem.Addrs[lane] != addrs[lane] {
					t.Fatalf("lane %d address %#x, reference %#x: %s", lane, mem.Addrs[lane], addrs[lane], where())
				}
			}
		}
		for reg := range w.Regs {
			for lane := 0; lane < WarpSize; lane++ {
				if got, want := w.Regs[reg].Lane(lane), ref.lanes[lane].regs[reg]; got != want {
					t.Fatalf("r%d lane %d = %d, reference %d: %s", reg, lane, got, want, where())
				}
			}
		}
		for p := range w.Preds {
			for lane := 0; lane < WarpSize; lane++ {
				if got, want := w.Preds[p]&(1<<uint(lane)) != 0, ref.lanes[lane].preds[p]; got != want {
					t.Fatalf("p%d lane %d = %v, reference %v: %s", p, lane, got, want, where())
				}
			}
		}
	}
}

// affineSeeds are the hand-written seed programs: affine values of stride
// 0, ±1 and ±8, a shift by 63, values near ±2⁶³, partial masks, and
// addresses whose last lane lands just inside A and just outside B.
var affineSeeds = [][]fuzzInstr{
	{ // strides 0, 1, -1, 8, -8 and their sums
		{op: "mov", dst: "r0", a: "%laneid"},
		{op: "sub", dst: "r1", a: "0", b: "%tid"},
		{op: "shl", dst: "r2", a: "%laneid", b: "3"},
		{op: "mul", dst: "r3", a: "%tid", b: "-8"},
		{op: "add", dst: "r4", a: "r2", b: "r3"},
		{op: "mad", dst: "r5", a: "r1", b: "x", c: "r0"},
		{op: "mov", dst: "r6", a: "y"},
		{op: "mad", dst: "r7", a: "r6", b: "r2", c: "r6"},
	},
	{ // a shift of 63 and a shift by an affine amount
		{op: "shl", dst: "r0", a: "%laneid", b: "63"},
		{op: "shl", dst: "r1", a: "%tid", b: "63"},
		{op: "shl", dst: "r2", a: "1", b: "%laneid"},
		{op: "shl", dst: "r3", a: "r0", b: "64"},
		{op: "shr", dst: "r4", a: "r1", b: "63"},
	},
	{ // values near ±2⁶³ wrap lane by lane
		{op: "mad", dst: "r0", a: "%laneid", b: "9223372036854775807", c: "-9223372036854775808"},
		{op: "add", dst: "r1", a: "%tid", b: "9223372036854775807"},
		{op: "mul", dst: "r2", a: "r1", b: "4611686018427387904"},
		{op: "sub", dst: "r3", a: "-9223372036854775808", b: "%laneid"},
		{op: "setp.lt", dst: "p0", a: "r3", b: "0"},
		{op: "setp.gt", dst: "p1", a: "r1", b: "x"},
	},
	{ // partial masks over affine values, and both buffers' edges
		{op: "setp.lt", dst: "p0", a: "%laneid", b: "8"},
		{op: "shl", dst: "r1", a: "%laneid", b: "3"},
		{op: "add", dst: "r2", a: "r1", b: "8", guard: "@p0"},
		{op: "mul", dst: "r3", a: "%tid", b: "3", guard: "@!p0"},
		{op: "ld.global.u64", dst: "r4", a: "r1", c: "A"},
		{op: "ld.global.u64", dst: "r5", a: "r1", c: "B"},
		{op: "mov", dst: "r6", a: "%tid"},
		{op: "ld.global.u32", dst: "r6", a: "r1", c: "B", guard: "@!p0"},
		{op: "ld.global.u64", dst: "r6", a: "r2", c: "B", guard: "@p0"},
		{op: "st.global.u64", a: "r1", b: "r2", c: "B"},
		{op: "atom.global.add.u64", dst: "r7", a: "r3", b: "1", c: "A", guard: "@p0"},
		{op: "sel", dst: "r0", a: "r1", b: "%tid", c: "p0"},
		{op: "add", dst: "r0", a: "r0", b: "r4"},
	},
}

func FuzzExecMatchesLanes(f *testing.F) {
	for _, prog := range affineSeeds {
		f.Add(encodeProg(prog...), int64(3), int64(-7), uint8(1))
	}
	// One program per ALU op: the op on affine operands of every stride
	// above, uniform and affine mixed, and a guarded form.
	for _, op := range fuzzOps[:16] {
		_, nsrc, err := aluOp(op)
		if err != nil {
			f.Fatal(err)
		}
		opds := func(a, b, c string) (string, string, string) {
			s := [3]string{a, b, c}
			for i := nsrc; i < 3; i++ {
				s[i] = ""
			}
			return s[0], s[1], s[2]
		}
		in := func(dst, a, b, c, guard string) fuzzInstr {
			a, b, c = opds(a, b, c)
			return fuzzInstr{op: op, dst: dst, a: a, b: b, c: c, guard: guard}
		}
		f.Add(encodeProg(
			fuzzInstr{op: "mul", dst: "r1", a: "%laneid", b: "-8"},
			fuzzInstr{op: "sub", dst: "r2", a: "x", b: "%tid"},
			fuzzInstr{op: "setp.ge", dst: "p0", a: "%laneid", b: "8"},
			in("r3", "r1", "r2", "%tid", ""),
			in("r4", "%tid", "3", "r1", ""),
			in("r5", "x", "r1", "y", ""),
			in("r6", "r2", "63", "-8", ""),
			in("r7", "9223372036854775807", "%laneid", "r2", ""),
			in("r3", "r3", "r1", "r4", "@p0"),
			in("r0", "x", "y", "1", "@!p0"),
			fuzzInstr{op: "ld.global.u64", dst: "r5", a: "r3", c: "A"},
		), int64(1<<40), int64(-3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, prog []byte, x, y int64, cta uint8) {
		src := decodeProg(prog)
		// Both warps run in one set of contexts: the second spreads into
		// the lane vectors the first left in the pool, stale lanes and all.
		var ws Warps
		for warp := 0; warp < 2; warp++ {
			runAgainstLanes(t, &ws, src, x, y, int(cta)%4, warp)
		}
	})
}

// streamSrc is the workload package's stream kernel (LBM, DWT2D): each
// thread sweeps a contiguous tile with coalesced 8-byte loads and stores.
// Every value it computes is affine in the lane index.
const streamSrc = `
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
`

// TestAffineKernelSpreadsNothing pins what the affine form buys on the
// streaming kernels: a warp of the stream kernel runs to exit without one
// register ever holding a lane vector, so once the first warp has built
// the register file a whole warp allocates nothing.
func TestAffineKernelSpreadsNothing(t *testing.T) {
	k := MustParse(streamSrc)
	const grid, threads, iters = 8, 256, 4
	size := uint64(grid * threads * iters * 8)
	l := &Launch{Kernel: k, GridDim: grid, CTAThreads: threads, Scalars: []int64{iters, 2, 2},
		Buffers: []Binding{{Base: 1 << 30, Size: size}, {Base: 1 << 31, Size: size}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	var mem MemInfo
	w := NewWarp(l, 0, 0)
	for cta := 0; cta < grid; cta++ {
		for wi := 0; wi < l.WarpsPerCTA(); wi++ {
			w.Reset(l, cta, wi)
			for !w.Exited {
				w.Exec(&mem)
				for r := range w.Regs {
					if v := &w.Regs[r]; v.lanes != nil {
						t.Fatalf("CTA %d warp %d: r%d spread to lanes at PC %d", cta, wi, r, w.PC)
					}
				}
			}
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		next++
		w.Reset(l, next%grid, next%l.WarpsPerCTA())
		for !w.Exited {
			w.Exec(&mem)
		}
	})
	if allocs != 0 {
		t.Fatalf("a stream warp allocated %.0f objects", allocs)
	}
}

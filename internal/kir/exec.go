package kir

import (
	"fmt"

	"github.com/nuba-gpu/nuba/internal/sim"
)

// Launch binds a kernel to a grid and its memory: the simulator's
// equivalent of a CUDA kernel launch.
type Launch struct {
	Kernel *Kernel
	// GridDim is the number of CTAs; CTAThreads the threads per CTA
	// (a multiple of WarpSize).
	GridDim    int
	CTAThreads int
	// Scalars are the values of the scalar parameters, in order.
	Scalars []int64
	// Buffers bind the pointer parameters, in order.
	Buffers []Binding
}

// Binding places one buffer parameter in the virtual address space.
type Binding struct {
	// Base is the virtual base address (page aligned by convention).
	Base uint64
	// Size is the buffer extent in bytes. Per-lane offsets wrap modulo
	// Size so a kernel bug cannot touch unrelated address space.
	Size uint64
	// Value is the functional value model: loads of element i return
	// Value(i). A nil Value reads as zero. The simulator stores no data;
	// value models make data-dependent (irregular) addressing
	// reproducible without a backing store.
	Value func(elem int64) int64
}

// WarpsPerCTA returns the number of warps each CTA occupies.
func (l *Launch) WarpsPerCTA() int { return (l.CTAThreads + WarpSize - 1) / WarpSize }

// Validate checks the launch against its kernel.
func (l *Launch) Validate() error {
	k := l.Kernel
	switch {
	case k == nil:
		return fmt.Errorf("kir: launch without kernel")
	case !k.Analyzed:
		return fmt.Errorf("kir: kernel %s not analyzed (run AnalyzeReadOnly)", k.Name)
	case l.GridDim <= 0:
		return fmt.Errorf("kir: %s: grid must be positive", k.Name)
	case l.CTAThreads <= 0 || l.CTAThreads%WarpSize != 0:
		return fmt.Errorf("kir: %s: CTA threads %d not a positive multiple of %d", k.Name, l.CTAThreads, WarpSize)
	case len(l.Scalars) != len(k.ScalarParams):
		return fmt.Errorf("kir: %s: %d scalars bound, kernel wants %d", k.Name, len(l.Scalars), len(k.ScalarParams))
	case len(l.Buffers) != len(k.Buffers):
		return fmt.Errorf("kir: %s: %d buffers bound, kernel wants %d", k.Name, len(l.Buffers), len(k.Buffers))
	}
	for i, b := range l.Buffers {
		if b.Size == 0 {
			return fmt.Errorf("kir: %s: buffer %s has zero size", k.Name, k.Buffers[i].Name)
		}
	}
	return nil
}

// Value is a warp-wide 64-bit value in one of three forms: uniform (one
// scalar for all lanes), affine (lane l holds scalar + stride·l) or
// per-lane. Uniform is affine with stride 0, so both are stored the same
// way, without a lane vector. The zero Value is uniform zero, so fresh
// register files are valid.
type Value struct {
	lanes  *[WarpSize]int64
	scalar int64
	stride int64
}

// Uniform reports whether all lanes share one scalar.
func (v *Value) Uniform() bool { return v.lanes == nil && v.stride == 0 }

// Lane returns the value of the given lane.
func (v *Value) Lane(l int) int64 {
	if v.lanes == nil {
		return v.scalar + v.stride*int64(l)
	}
	return v.lanes[l]
}

// setAffine makes lane l of v hold base + stride·l; the lane vector v held,
// if any, goes back to p.
func (v *Value) setAffine(p *lanePool, base, stride int64) {
	if v.lanes != nil {
		p.free = append(p.free, v.lanes)
	}
	v.lanes, v.scalar, v.stride = nil, base, stride
}

// spread converts v to per-lane form, in a lane vector taken from p.
func (v *Value) spread(p *lanePool) *[WarpSize]int64 {
	if v.lanes == nil {
		var a *[WarpSize]int64
		if n := len(p.free); n > 0 {
			a, p.free = p.free[n-1], p.free[:n-1]
		} else {
			a = sim.Carve(&p.size, &p.slab, laneSlab)
		}
		for i := range a {
			a[i] = v.scalar + v.stride*int64(i)
		}
		v.lanes = a
	}
	return v.lanes
}

// lanePool holds the lane vectors of a set of warps that no register holds
// and carves new ones from slabs of at most laneSlab: a longer slab's
// unused tail costs more bytes than its fewer allocations save.
type lanePool struct {
	free []*[WarpSize]int64
	slab [][WarpSize]int64
	size int // length of the next slab
}

const laneSlab = 4

// MemInfo describes the memory access produced by executing a load, store
// or atomic: the per-lane virtual addresses before coalescing.
type MemInfo struct {
	Buf       int
	Store     bool
	Atomic    bool
	RO        bool
	ElemBytes int
	// Mask has a bit per lane that performs the access.
	Mask uint32
	// Addrs are the per-lane virtual byte addresses (valid where Mask).
	Addrs [WarpSize]uint64
}

// StepKind classifies what an executed instruction asks of the SM.
type StepKind uint8

// Step kinds.
const (
	// StepCompute finished an arithmetic instruction; the destination
	// register becomes ready after the op latency.
	StepCompute StepKind = iota
	// StepMem produced a memory access (details in the MemInfo the SM
	// supplied).
	StepMem
	// StepBarrier arrived at a CTA barrier.
	StepBarrier
	// StepExit retired the warp.
	StepExit
)

// StepInfo summarizes one executed instruction for the SM's timing model.
type StepInfo struct {
	Kind StepKind
	// Op is the executed opcode.
	Op Op
	// DstReg is the general register written, or -1. The SM's
	// scoreboard marks it pending until the result is available.
	DstReg int8
	// Latency is the compute latency for StepCompute.
	Latency int64
}

// Warp is the architectural state of one warp.
type Warp struct {
	L *Launch
	// CTA is the linear CTA index; WarpInCTA the warp index within it.
	CTA       int
	WarpInCTA int
	PC        int
	// ActiveMask has a bit per lane that exists (CTAThreads may leave a
	// tail warp partially populated).
	ActiveMask uint32
	Regs       []Value
	Preds      []uint32
	Exited     bool
	pool       *lanePool // where its registers' lane vectors come from and go
}

// resolve evaluates an operand into a Value: a register's own (which
// shares its lane vector, if any), or the uniform or affine value of any
// other operand, so the interpreter's inner loops need no per-lane
// switch on the operand kind.
func (w *Warp) resolve(o Operand) Value {
	switch o.Kind {
	case OpdReg:
		return w.Regs[o.Val]
	case OpdImm:
		return Value{scalar: o.Val}
	case OpdParam:
		return Value{scalar: w.L.Scalars[o.Val]}
	case OpdSpecial:
		switch Special(o.Val) {
		case SpecTid:
			return Value{scalar: int64(w.WarpInCTA * WarpSize), stride: 1}
		case SpecCtaid:
			return Value{scalar: int64(w.CTA)}
		case SpecNtid:
			return Value{scalar: int64(w.L.CTAThreads)}
		case SpecNctaid:
			return Value{scalar: int64(w.L.GridDim)}
		case SpecWarpid:
			return Value{scalar: int64(w.WarpInCTA)}
		case SpecLaneid:
			return Value{stride: 1}
		}
	}
	return Value{}
}

// NewWarp returns warp warpInCTA of CTA cta, ready at PC 0: the one
// context of a Warps of its own.
func NewWarp(l *Launch, cta, warpInCTA int) *Warp {
	w := &new(Warps).Fit(l, 1)[0]
	w.Reset(l, cta, warpInCTA)
	return w
}

// Reset makes w warp warpInCTA of CTA cta of launch l, ready at PC 0 —
// exactly the warp NewWarp returns — in the register file w already owns,
// returning its lane vectors to its pool. A hardware warp slot runs many
// warps over a kernel; this is what lets it do so without allocating. The
// file must fit l: w comes from a Warps fitted for l, or from NewWarp.
func (w *Warp) Reset(l *Launch, cta, warpInCTA int) {
	threads := min(l.CTAThreads-warpInCTA*WarpSize, WarpSize)
	w.L, w.CTA, w.WarpInCTA, w.PC, w.Exited = l, cta, warpInCTA, 0, false
	w.ActiveMask = ^uint32(0) >> uint(WarpSize-threads)
	w.Regs, w.Preds = w.Regs[:l.Kernel.NumRegs], w.Preds[:l.Kernel.NumPreds]
	for i := range w.Regs {
		w.Regs[i].setAffine(w.pool, 0, 0)
	}
	clear(w.Preds)
}

// Warps is a set of warp contexts that share storage: one register-file
// slab, one predicate slab and one pool of lane vectors. A register's
// vector goes back to the pool when the register goes uniform or affine
// or its warp is reset, for any warp of the set to take next.
type Warps struct {
	warps []Warp
	taken int // contexts Take has handed out
	regs  []Value
	preds []uint32
	lanes lanePool
}

// Fit makes n contexts for warps of launch l and returns them, each to be
// Reset as a warp. The previous contexts' lane vectors go back to the
// pool; the slabs are reallocated only when too small.
func (ws *Warps) Fit(l *Launch, n int) []Warp {
	for i := range ws.regs {
		ws.regs[i].setAffine(&ws.lanes, 0, 0)
	}
	nr, np := l.Kernel.NumRegs, l.Kernel.NumPreds
	ws.warps, ws.regs, ws.preds = sim.Resize(ws.warps, n), sim.Resize(ws.regs, n*nr), sim.Resize(ws.preds, n*np)
	ws.taken = 0
	for i := range ws.warps {
		ws.warps[i] = Warp{Regs: ws.regs[i*nr : (i+1)*nr : (i+1)*nr], Preds: ws.preds[i*np : (i+1)*np : (i+1)*np], pool: &ws.lanes}
	}
	return ws.warps
}

// Take returns the next context of the last Fit not yet taken.
func (ws *Warps) Take() *Warp {
	ws.taken++
	return &ws.warps[ws.taken-1]
}

// Current returns the instruction at PC, or nil if the warp has exited.
func (w *Warp) Current() *Instr {
	if w.Exited {
		return nil
	}
	return &w.L.Kernel.Code[w.PC]
}

// guardMask returns the lanes that execute the current instruction.
func (w *Warp) guardMask(in *Instr) uint32 {
	m := w.ActiveMask
	if in.Pred >= 0 {
		p := w.Preds[in.Pred]
		if in.PredNeg {
			p = ^p
		}
		m &= p
	}
	return m
}

func alu(op Op, a, b, c int64) int64 {
	switch op {
	case OpMov, OpFma:
		return a
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMad:
		return a*b + c
	case OpShl:
		return a << uint64(b&63)
	case OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpRem:
		if b == 0 {
			return 0
		}
		return a % b
	case OpHash:
		return int64(sim.Mix(uint64(a)))
	default:
		panic("kir: alu on non-alu op " + op.String())
	}
}

// affineALU evaluates an ALU op once for the whole warp when its result
// is affine in the lane index: base and stride of the result, or ok false
// when the op must run lane by lane. All-uniform operands always qualify.
// Beyond them it takes the ops that map lane-linear inputs to a
// lane-linear output — mov/fma, add, sub, mul/mad with a uniform factor,
// shl by a uniform amount. These are exact because int64 arithmetic is the
// ring of integers modulo 2⁶⁴, where multiplication distributes over
// addition whatever wraps: (x + s·l)·y = x·y + (s·y)·l, and a left shift
// by k is a multiplication by 2ᵏ.
func affineALU(op Op, a, b, c Value) (base, stride int64, ok bool) {
	if a.lanes != nil || b.lanes != nil || c.lanes != nil {
		return 0, 0, false
	}
	if a.stride == 0 && b.stride == 0 && c.stride == 0 {
		return alu(op, a.scalar, b.scalar, c.scalar), 0, true
	}
	switch op {
	case OpMov, OpFma:
		return a.scalar, a.stride, true
	case OpAdd:
		return a.scalar + b.scalar, a.stride + b.stride, true
	case OpSub:
		return a.scalar - b.scalar, a.stride - b.stride, true
	case OpMul, OpMad:
		switch {
		case b.stride == 0:
			base, stride = a.scalar*b.scalar, a.stride*b.scalar
		case a.stride == 0:
			base, stride = a.scalar*b.scalar, a.scalar*b.stride
		default:
			return 0, 0, false // the product of two lane-linear values is quadratic
		}
		if op == OpMad {
			base, stride = base+c.scalar, stride+c.stride
		}
		return base, stride, true
	case OpShl:
		if b.stride != 0 {
			return 0, 0, false
		}
		k := uint64(b.scalar & 63)
		return a.scalar << k, a.stride << k, true
	}
	return 0, 0, false
}

func compare(c Cmp, a, b int64) bool {
	switch c {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	default:
		return a != b
	}
}

// Exec executes the instruction at PC, applies its architectural effects
// (register/predicate writes, PC update) and returns timing information.
// For memory operations the per-lane addresses and dest-value writes are
// produced immediately (the value model is functional); the SM is
// responsible for charging latency via its scoreboard. mem must be
// non-nil; it is overwritten when the result kind is StepMem.
func (w *Warp) Exec(mem *MemInfo) StepInfo {
	in := w.Current()
	if in == nil {
		return StepInfo{Kind: StepExit, DstReg: -1}
	}
	mask := w.guardMask(in)
	full := mask == w.ActiveMask

	switch in.Op {
	case OpExit:
		w.Exited = true
		w.PC++
		return StepInfo{Kind: StepExit, Op: in.Op, DstReg: -1}

	case OpBar:
		w.PC++
		return StepInfo{Kind: StepBarrier, Op: in.Op, DstReg: -1}

	case OpBra:
		taken := mask != 0
		if taken && mask != w.ActiveMask {
			panic(fmt.Sprintf("kir: %s: divergent branch at line %d (mask %08x of %08x)",
				w.L.Kernel.Name, in.Line, mask, w.ActiveMask))
		}
		if taken {
			w.PC = int(in.Target)
		} else {
			w.PC++
		}
		return StepInfo{Kind: StepCompute, Op: in.Op, DstReg: -1, Latency: in.Op.Latency()}

	case OpSetp:
		var m uint32
		ra, rb := w.resolve(in.Src[0]), w.resolve(in.Src[1])
		if ra.Uniform() && rb.Uniform() {
			if compare(in.Cmp, ra.scalar, rb.scalar) {
				m = ^uint32(0)
			}
		} else {
			for l := 0; l < WarpSize; l++ {
				if compare(in.Cmp, ra.Lane(l), rb.Lane(l)) {
					m |= 1 << uint(l)
				}
			}
		}
		w.Preds[in.Dst] = (w.Preds[in.Dst] &^ mask) | (m & mask)
		w.PC++
		return StepInfo{Kind: StepCompute, Op: in.Op, DstReg: -1, Latency: in.Op.Latency()}

	case OpSel:
		pm := w.Preds[in.PredSrc]
		ra, rb := w.resolve(in.Src[0]), w.resolve(in.Src[1])
		dst := w.Regs[in.Dst].spread(w.pool)
		for l := 0; l < WarpSize; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			if pm&(1<<uint(l)) != 0 {
				dst[l] = ra.Lane(l)
			} else {
				dst[l] = rb.Lane(l)
			}
		}
		w.PC++
		return StepInfo{Kind: StepCompute, Op: in.Op, DstReg: in.Dst, Latency: in.Op.Latency()}

	case OpLd, OpLdRO, OpSt, OpAtom:
		w.execMem(in, mask, mem)
		w.PC++
		dst := int8(-1)
		if in.Op != OpSt {
			dst = in.Dst
		}
		kind := StepMem
		if mask == 0 {
			kind = StepCompute // fully predicated off: no access
		}
		return StepInfo{Kind: kind, Op: in.Op, DstReg: dst, Latency: 1}

	default: // ALU
		ra := w.resolve(in.Src[0])
		rb := w.resolve(in.Src[1])
		rc := w.resolve(in.Src[2])
		if base, stride, ok := affineALU(in.Op, ra, rb, rc); ok {
			if full {
				w.Regs[in.Dst].setAffine(w.pool, base, stride)
			} else {
				dst := w.Regs[in.Dst].spread(w.pool)
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = base + stride*int64(l)
					}
				}
			}
		} else {
			dst := w.Regs[in.Dst].spread(w.pool)
			switch op := in.Op; op {
			// Specialized loops for the hottest opcodes avoid the alu()
			// switch per lane.
			case OpAdd:
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = ra.Lane(l) + rb.Lane(l)
					}
				}
			case OpMul:
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = ra.Lane(l) * rb.Lane(l)
					}
				}
			case OpMad:
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = ra.Lane(l)*rb.Lane(l) + rc.Lane(l)
					}
				}
			case OpShl:
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = ra.Lane(l) << uint64(rb.Lane(l)&63)
					}
				}
			default:
				for l := 0; l < WarpSize; l++ {
					if mask&(1<<uint(l)) != 0 {
						dst[l] = alu(op, ra.Lane(l), rb.Lane(l), rc.Lane(l))
					}
				}
			}
		}
		w.PC++
		return StepInfo{Kind: StepCompute, Op: in.Op, DstReg: in.Dst, Latency: in.Op.Latency()}
	}
}

// execMem fills mem with the access produced by a ld/st/atom instruction
// and applies the load's register write from the buffer's value model.
func (w *Warp) execMem(in *Instr, mask uint32, mem *MemInfo) {
	b := &w.L.Buffers[in.Buf]
	mem.Buf = int(in.Buf)
	mem.Store = in.Op == OpSt
	mem.Atomic = in.Op == OpAtom
	mem.RO = in.Op == OpLdRO
	mem.ElemBytes = int(in.ElemBytes)
	mem.Mask = mask
	if mask == 0 {
		return
	}
	ro := w.resolve(in.Src[0])
	var dst *[WarpSize]int64 // the lanes a load writes, if it writes lanes
	if in.Op != OpSt {
		if b.Value == nil && mask == w.ActiveMask {
			w.Regs[in.Dst].setAffine(w.pool, 0, 0) // no value model: every lane reads zero
		} else {
			dst = w.Regs[in.Dst].spread(w.pool)
		}
	}
	base, size, elem := b.Base, b.Size, uint64(in.ElemBytes)
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		off := uint64(ro.Lane(l))
		if off >= size || size-off < elem { // off+elem could overflow
			off %= size // wrap rather than escape the buffer
			off -= off % elem
		}
		mem.Addrs[l] = base + off
		if dst != nil {
			if b.Value != nil {
				dst[l] = b.Value(int64(off) / int64(elem))
			} else {
				dst[l] = 0
			}
		}
	}
}

// InstrRegs returns the general registers an instruction reads (for the
// SM scoreboard); dst is its written register or -1.
func InstrRegs(in *Instr) (srcs [4]int8, n int, dst int8) {
	dst = -1
	add := func(o Operand) {
		if o.Kind == OpdReg {
			srcs[n] = int8(o.Val)
			n++
		}
	}
	add(in.Src[0])
	add(in.Src[1])
	add(in.Src[2])
	switch in.Op {
	case OpSetp, OpBra, OpBar, OpExit, OpSt:
		// no general dest
	default:
		dst = in.Dst
	}
	return srcs, n, dst
}

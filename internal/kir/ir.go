// Package kir defines the kernel intermediate representation the simulator
// executes: a small PTX-like, warp-level ISA with virtual registers,
// per-lane predication, global loads/stores and CTA barriers.
//
// Kernels are written in a textual assembly (see Parse) closely modeled on
// PTX. The package also provides the compiler support the NUBA paper
// requires: a data-flow analysis that classifies each buffer parameter as
// read-only or read-write within a kernel and rewrites loads from
// read-only buffers into ld.global.ro (AnalyzeReadOnly), mirroring the
// PTX-level analysis of Section 5.2.
package kir

import "fmt"

// WarpSize is the number of lanes per warp (fixed at 32, as in Table 1).
const WarpSize = 32

// Limits of the register files.
const (
	MaxRegs  = 32 // general-purpose 64-bit registers r0..r31
	MaxPreds = 8  // predicate registers p0..p7
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes.
const (
	OpNop  Op = iota
	OpMov     // mov  rd, a
	OpAdd     // add  rd, a, b
	OpSub     // sub  rd, a, b
	OpMul     // mul  rd, a, b
	OpMad     // mad  rd, a, b, c   (rd = a*b + c)
	OpShl     // shl  rd, a, b
	OpShr     // shr  rd, a, b (logical)
	OpAnd     // and  rd, a, b
	OpOr      // or   rd, a, b
	OpXor     // xor  rd, a, b
	OpMin     // min  rd, a, b
	OpMax     // max  rd, a, b
	OpDiv     // div  rd, a, b (b==0 yields 0)
	OpRem     // rem  rd, a, b (b==0 yields 0)
	OpHash    // hash rd, a      (splitmix64 finalizer; synthetic indirection)
	OpFma     // fma  rd, a      (floating-point work placeholder, long latency)
	OpSetp    // setp.cc pd, a, b
	OpSel     // sel  rd, pq, a, b (per-lane pq ? a : b)
	OpBra     // bra  label       (warp-uniform; may be predicated)
	OpLd      // ld.global.uN  rd, [buf + a]
	OpLdRO    // ld.global.ro.uN rd, [buf + a]  (compiler-generated)
	OpSt      // st.global.uN  [buf + a], v
	OpAtom    // atom.global.add.uN rd, [buf + a], v
	OpBar     // bar.sync
	OpExit    // exit
)

// Cmp enumerates setp comparison conditions.
type Cmp uint8

// Comparison conditions.
const (
	CmpLT Cmp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// OperandKind classifies instruction operands.
type OperandKind uint8

// Operand kinds.
const (
	// OpdNone marks an unused operand slot.
	OpdNone OperandKind = iota
	// OpdReg reads general register Val.
	OpdReg
	// OpdImm is the immediate Val.
	OpdImm
	// OpdSpecial reads special register Special(Val).
	OpdSpecial
	// OpdParam reads scalar kernel parameter Val (bound at launch).
	OpdParam
)

// Special enumerates the PTX-style special registers.
type Special uint8

// Special registers.
const (
	SpecTid    Special = iota // %tid: thread index within the CTA
	SpecCtaid                 // %ctaid: CTA index within the grid
	SpecNtid                  // %ntid: threads per CTA
	SpecNctaid                // %nctaid: CTAs in the grid
	SpecWarpid                // %warpid: warp index within the CTA
	SpecLaneid                // %laneid: lane index within the warp
)

// Operand is one instruction source.
type Operand struct {
	Kind OperandKind
	Val  int64
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Cmp Cmp
	// Dst is the destination register (general for most ops, predicate
	// index for setp); -1 when unused.
	Dst int8
	// PredSrc is the predicate operand of sel; -1 otherwise.
	PredSrc int8
	// Src are the source operands.
	Src [3]Operand
	// Pred/PredNeg guard the instruction: executes for lanes where
	// p<Pred> (negated if PredNeg) holds; Pred is -1 when unguarded.
	Pred    int8
	PredNeg bool
	// Buf is the buffer parameter index for memory ops.
	Buf int16
	// ElemBytes is the per-lane access size for memory ops (4 or 8).
	ElemBytes int8
	// Target is the branch destination instruction index.
	Target int32
	// Line is the 1-based source line, for diagnostics.
	Line int
	// NeedMask has a bit per general register the instruction reads or
	// writes; precomputed at parse time for the SM scoreboard.
	NeedMask uint32
}

// BufferParam describes a pointer parameter of a kernel.
type BufferParam struct {
	Name string
	// ReadOnly is set by AnalyzeReadOnly when no store or atomic in the
	// kernel targets the buffer.
	ReadOnly bool
}

// Kernel is a parsed, verified kernel.
type Kernel struct {
	Name string
	// Buffers are the pointer parameters in declaration order.
	Buffers []BufferParam
	// ScalarParams are the names of scalar (.u64) parameters in
	// declaration order; values are bound at launch.
	ScalarParams []string
	// Code is the instruction stream.
	Code []Instr
	// NumRegs and NumPreds are the highest used counts, for allocation.
	NumRegs  int
	NumPreds int
	// Analyzed records that AnalyzeReadOnly ran (Parse runs it; a
	// hand-built Kernel must).
	Analyzed bool
}

// BufferIndex returns the index of the named buffer parameter, or -1.
func (k *Kernel) BufferIndex(name string) int {
	for i, b := range k.Buffers {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// ScalarIndex returns the index of the named scalar parameter, or -1.
func (k *Kernel) ScalarIndex(name string) int {
	for i, s := range k.ScalarParams {
		if s == name {
			return i
		}
	}
	return -1
}

// String returns a compact disassembly, used in tests and debugging.
func (k *Kernel) String() string {
	s := fmt.Sprintf(".kernel %s (%d buffers, %d scalars, %d instrs)",
		k.Name, len(k.Buffers), len(k.ScalarParams), len(k.Code))
	return s
}

// ops states each opcode once: its mnemonic (String, and what the
// parser matches), the source-operand count when it is a plain ALU op —
// "name rd, a[, b[, c]]", read by the parser from here; 0 for the ops
// with a grammar arm of their own — and its issue-to-result latency.
var ops = [...]struct {
	name string
	srcs int8
	lat  uint8
}{
	OpNop:  {"nop", 0, 2},
	OpMov:  {"mov", 1, 2},
	OpAdd:  {"add", 2, 2},
	OpSub:  {"sub", 2, 2},
	OpMul:  {"mul", 2, 5},
	OpMad:  {"mad", 3, 5},
	OpShl:  {"shl", 2, 2},
	OpShr:  {"shr", 2, 2},
	OpAnd:  {"and", 2, 2},
	OpOr:   {"or", 2, 2},
	OpXor:  {"xor", 2, 2},
	OpMin:  {"min", 2, 2},
	OpMax:  {"max", 2, 2},
	OpDiv:  {"div", 2, 20},
	OpRem:  {"rem", 2, 20},
	OpHash: {"hash", 1, 2},
	OpFma:  {"fma", 1, 4},
	OpSetp: {"setp", 0, 2},
	OpSel:  {"sel", 0, 2},
	OpBra:  {"bra", 0, 2},
	OpLd:   {"ld.global", 0, 2},
	OpLdRO: {"ld.global.ro", 0, 2},
	OpSt:   {"st.global", 0, 2},
	OpAtom: {"atom.global.add", 0, 2},
	OpBar:  {"bar.sync", 0, 2},
	OpExit: {"exit", 0, 2},
}

// String returns the mnemonic of op.
func (o Op) String() string {
	if int(o) < len(ops) {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether op accesses global memory.
func (o Op) IsMem() bool { return o == OpLd || o == OpLdRO || o == OpSt || o == OpAtom }

// Latency returns the issue-to-result latency in cycles of a non-memory
// op — an array read: it is on the issue path. Memory latency is
// determined by the memory system.
func (o Op) Latency() int64 { return int64(latency[o]) }

// latency is ops' lat column on its own, dense: the issue path reads one
// cache line of it, not a 32-byte row of ops per opcode (which measured
// slower than the switch it replaced on idle_sparse; CHANGES.md, PR 26).
var latency = func() (l [len(ops)]uint8) {
	for op, d := range ops {
		l[op] = d.lat
	}
	return l
}()

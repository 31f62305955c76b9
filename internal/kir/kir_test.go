package kir

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// execAll runs a warp to completion and returns per-op counts plus all
// memory accesses.
func execAll(t *testing.T, w *Warp, limit int) (map[Op]int, []MemInfo) {
	t.Helper()
	counts := map[Op]int{}
	var mems []MemInfo
	var mem MemInfo
	for i := 0; i < limit && !w.Exited; i++ {
		in := w.Current()
		res := w.Exec(&mem)
		counts[in.Op]++
		if res.Kind == StepMem {
			mems = append(mems, mem)
		}
	}
	if !w.Exited {
		t.Fatalf("warp did not exit within %d steps", limit)
	}
	return counts, mems
}

func simpleLaunch(t *testing.T, src string, scalars []int64, bufs []Binding) *Launch {
	t.Helper()
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := &Launch{Kernel: k, GridDim: 4, CTAThreads: 64, Scalars: scalars, Buffers: bufs}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantErr string
	}{
		{"", "missing .kernel"},
		{".kernel k\n  mov r0, 1\n", "must end with exit"},
		{".kernel k\n  bra nowhere\n  exit\n", "undefined label"},
		{".kernel k\n  frobnicate r0, r1\n  exit\n", "unknown instruction"},
		{".kernel k\n  mov r99, 1\n  exit\n", "out of range"},
		{".kernel k\n  ld.global.u64 r0, [NOPE + r1]\n  exit\n", "unknown buffer"},
		{".kernel k\n.param .ptr A\n.param .ptr A\n  exit\n", "duplicate parameter"},
		{".kernel k\nfoo:\nfoo:\n  exit\n", "duplicate label"},
		{".kernel k\n  setp.zz p0, r0, r1\n  exit\n", "unknown setp"},
		{".kernel k\n  mov r0, %bogus\n  exit\n", "unknown special"},
	}
	for i, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("case %d: err=%v, want substring %q", i, err, c.wantErr)
		}
	}
}

func TestParseComments(t *testing.T) {
	k, err := Parse(`
// leading comment
.kernel demo   // trailing
.param .ptr A  # hash comment
  mov r0, 1
  exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "demo" || len(k.Code) != 2 {
		t.Fatalf("parsed %v with %d instrs", k.Name, len(k.Code))
	}
}

func TestALUSemantics(t *testing.T) {
	// Each thread computes a chain of ALU ops; check the final register
	// via a store address (the only observable).
	src := `
.kernel alu
.param .ptr OUT
.param .u64 p
  mov r0, %tid
  add r1, r0, 10
  sub r1, r1, 2
  mul r2, r1, 3
  shl r3, r2, 1
  shr r3, r3, 1
  and r4, r3, 255
  or  r4, r4, 256
  xor r4, r4, 256
  min r5, r4, p
  max r5, r5, 0
  div r6, r5, 2
  rem r7, r5, 7
  mad r8, r6, 8, r7
  shl r9, r8, 3
  st.global.u64 [OUT + r9], r8
  exit
`
	l := simpleLaunch(t, src, []int64{1 << 20}, []Binding{{Base: 0x10000, Size: 1 << 20}})
	w := NewWarp(l, 0, 0)
	_, mems := execAll(t, w, 100)
	if len(mems) != 1 {
		t.Fatalf("expected 1 store, got %d", len(mems))
	}
	// Reference for lane 9: tid=9 -> r1=17, r2=51, r3=51, r4=51,
	// r5=51, r6=25, r7=2, r8=202.
	want := uint64(0x10000 + 202*8)
	if mems[0].Addrs[9] != want {
		t.Fatalf("lane 9 addr %#x want %#x", mems[0].Addrs[9], want)
	}
}

func TestLoopAndPredication(t *testing.T) {
	src := `
.kernel loop
.param .ptr OUT
.param .u64 n
  mov r0, 0
  mov r1, 0
loop:
  add r1, r1, 2
  add r0, r0, 1
  setp.lt p0, r0, n
  @p0 bra loop
  mov r2, %tid
  setp.lt p1, r2, 16
  @p1 mov r1, 999
  shl r3, r2, 3
  st.global.u64 [OUT + r3], r1
  exit
`
	l := simpleLaunch(t, src, []int64{5}, []Binding{{Base: 0, Size: 1 << 20}})
	w := NewWarp(l, 0, 0)
	execAll(t, w, 200)
	// r1 should be 999 for lanes <16, 10 for lanes >=16.
	if w.Regs[1].Lane(3) != 999 {
		t.Fatalf("lane 3 r1 = %d, want 999", w.Regs[1].Lane(3))
	}
	if w.Regs[1].Lane(20) != 10 {
		t.Fatalf("lane 20 r1 = %d, want 10", w.Regs[1].Lane(20))
	}
}

func TestSelAndNegatedGuard(t *testing.T) {
	src := `
.kernel sel
.param .ptr OUT
  mov r0, %laneid
  setp.ge p0, r0, 16
  sel r1, p0, 7, 3
  @!p0 add r1, r1, 100
  shl r2, r0, 3
  st.global.u64 [OUT + r2], r1
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{{Base: 0, Size: 4096}})
	w := NewWarp(l, 0, 0)
	execAll(t, w, 50)
	if w.Regs[1].Lane(20) != 7 {
		t.Fatalf("lane 20: %d want 7", w.Regs[1].Lane(20))
	}
	if w.Regs[1].Lane(2) != 103 {
		t.Fatalf("lane 2: %d want 103", w.Regs[1].Lane(2))
	}
}

func TestSpecialRegisters(t *testing.T) {
	src := `
.kernel special
.param .ptr OUT
  mov r0, %tid
  mov r1, %ctaid
  mov r2, %ntid
  mov r3, %nctaid
  mov r4, %warpid
  mov r5, %laneid
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{{Base: 0, Size: 4096}})
	w := NewWarp(l, 2, 1) // CTA 2, warp 1
	execAll(t, w, 20)
	if w.Regs[0].Lane(5) != 32+5 {
		t.Fatalf("tid lane5 = %d", w.Regs[0].Lane(5))
	}
	if w.Regs[1].Lane(0) != 2 || w.Regs[2].Lane(0) != 64 || w.Regs[3].Lane(0) != 4 {
		t.Fatal("ctaid/ntid/nctaid wrong")
	}
	if w.Regs[4].Lane(0) != 1 || w.Regs[5].Lane(7) != 7 {
		t.Fatal("warpid/laneid wrong")
	}
}

func TestLoadValueModel(t *testing.T) {
	src := `
.kernel vload
.param .ptr IDX
.param .ptr OUT
  mov r0, %laneid
  shl r1, r0, 3
  ld.global.u64 r2, [IDX + r1]
  shl r3, r2, 3
  st.global.u64 [OUT + r3], r2
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{
		{Base: 0x1000, Size: 4096, Value: func(i int64) int64 { return i * 2 }},
		{Base: 0x100000, Size: 1 << 20},
	})
	w := NewWarp(l, 0, 0)
	_, mems := execAll(t, w, 50)
	if len(mems) != 2 {
		t.Fatalf("want load+store, got %d accesses", len(mems))
	}
	st := mems[1]
	// Lane 5 loaded 10, so stores to OUT+80.
	if st.Addrs[5] != 0x100000+80 {
		t.Fatalf("store addr lane5 = %#x", st.Addrs[5])
	}
}

func TestBarrierAndExitSteps(t *testing.T) {
	src := `
.kernel barrier
.param .ptr A
  bar.sync
  mov r0, 1
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{{Base: 0, Size: 4096}})
	w := NewWarp(l, 0, 0)
	var mem MemInfo
	res := w.Exec(&mem)
	if res.Kind != StepBarrier {
		t.Fatalf("first step %v, want barrier", res.Kind)
	}
	w.Exec(&mem)
	res = w.Exec(&mem)
	if res.Kind != StepExit || !w.Exited {
		t.Fatal("exit not reported")
	}
	if w.Current() != nil {
		t.Fatal("Current() after exit should be nil")
	}
}

func TestDivergentBranchPanics(t *testing.T) {
	src := `
.kernel div
.param .ptr A
  mov r0, %laneid
  setp.lt p0, r0, 16
  @p0 bra skip
  mov r1, 1
skip:
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{{Base: 0, Size: 4096}})
	w := NewWarp(l, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("divergent branch did not panic")
		}
	}()
	var mem MemInfo
	for i := 0; i < 10; i++ {
		w.Exec(&mem)
	}
}

// An offset past the end wraps into the buffer, and so does a negative one:
// −1 … −7 bytes is within an element of 2⁶⁴, where off+elem overflows.
func TestOffsetWrapsInsteadOfEscaping(t *testing.T) {
	for _, off := range []string{"mov r0, 999999\n  shl r0, r0, 3",
		"sub r0, r0, 1", "sub r0, r0, 4", "sub r0, r0, 7", "sub r0, r0, 8"} {
		src := `
.kernel wrap
.param .ptr A
  mov r0, 0
  ` + off + `
  ld.global.u64 r1, [A + r0]
  exit
`
		l := simpleLaunch(t, src, nil, []Binding{{Base: 0x4000, Size: 1024, Value: func(e int64) int64 { return e }}})
		w := NewWarp(l, 0, 0)
		_, mems := execAll(t, w, 20)
		for lane := 0; lane < 32; lane++ {
			a := mems[0].Addrs[lane]
			if a < 0x4000 || a > 0x4000+1024-8 {
				t.Fatalf("%q: lane %d escaped buffer: %#x", off, lane, a)
			}
		}
		if off != "mov r0, 999999\n  shl r0, r0, 3" && (mems[0].Addrs[0] != 0x4000+1016 || w.Regs[1].Lane(0) != 127) {
			t.Errorf("%q: address %#x, loaded %d; want the last element, %#x and 127", off, mems[0].Addrs[0], w.Regs[1].Lane(0), 0x4000+1016)
		}
	}
}

func TestAnalyzeReadOnly(t *testing.T) {
	src := `
.kernel rw
.param .ptr RO
.param .ptr WR
.param .ptr AT
  mov r0, %tid
  shl r1, r0, 3
  ld.global.u64 r2, [RO + r1]
  ld.global.u64 r3, [WR + r1]
  st.global.u64 [WR + r1], r2
  atom.global.add.u64 r4, [AT + r1], r2
  exit
`
	k := MustParse(src)
	if !k.Buffers[0].ReadOnly || k.Buffers[1].ReadOnly || k.Buffers[2].ReadOnly {
		t.Fatalf("RO classification wrong: %+v", k.Buffers)
	}
	// Loads from RO rewritten; loads from WR untouched.
	var roLoads, plainLoads int
	for _, in := range k.Code {
		switch in.Op {
		case OpLdRO:
			roLoads++
		case OpLd:
			plainLoads++
		}
	}
	if roLoads != 1 || plainLoads != 1 {
		t.Fatalf("rewrites wrong: ro=%d plain=%d", roLoads, plainLoads)
	}
	// Parse ran the pass; running it again changes nothing.
	code := slices.Clone(k.Code)
	AnalyzeReadOnly(k)
	if !slices.Equal(code, k.Code) || !k.Buffers[0].ReadOnly || k.Buffers[1].ReadOnly {
		t.Fatal("AnalyzeReadOnly is not idempotent")
	}
}

func TestAnalyzeDemotesUnsoundRO(t *testing.T) {
	src := `
.kernel demote
.param .ptr A
  mov r0, %tid
  shl r1, r0, 3
  ld.global.ro.u64 r2, [A + r1]
  st.global.u64 [A + r1], r2
  exit
`
	k := MustParse(src)
	for _, in := range k.Code {
		if in.Op == OpLdRO {
			t.Fatal("unsound .ro load survived analysis")
		}
	}
}

func TestPartialTailWarp(t *testing.T) {
	// CTAThreads 40: warp 1 has only 8 active lanes.
	k := MustParse(`
.kernel tail
.param .ptr OUT
  mov r0, %tid
  shl r1, r0, 3
  st.global.u64 [OUT + r1], r0
  exit
`)
	l := &Launch{Kernel: k, GridDim: 1, CTAThreads: 64, Scalars: nil,
		Buffers: []Binding{{Base: 0, Size: 4096}}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	w := NewWarp(l, 0, 1)
	if w.ActiveMask != ^uint32(0) {
		t.Fatalf("full warp mask %x", w.ActiveMask)
	}
	// 40-thread CTA is invalid (not a multiple of 32); check validation.
	bad := &Launch{Kernel: k, GridDim: 1, CTAThreads: 40,
		Buffers: []Binding{{Base: 0, Size: 4096}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("CTAThreads=40 accepted")
	}
}

func TestLaunchValidate(t *testing.T) {
	k := MustParse(".kernel v\n.param .ptr A\n.param .u64 n\n  exit\n")
	good := &Launch{Kernel: k, GridDim: 1, CTAThreads: 32,
		Scalars: []int64{1}, Buffers: []Binding{{Base: 0, Size: 64}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Launch{
		{Kernel: k, GridDim: 0, CTAThreads: 32, Scalars: []int64{1}, Buffers: []Binding{{Size: 64}}},
		{Kernel: k, GridDim: 1, CTAThreads: 32, Scalars: nil, Buffers: []Binding{{Size: 64}}},
		{Kernel: k, GridDim: 1, CTAThreads: 32, Scalars: []int64{1}, Buffers: nil},
		{Kernel: k, GridDim: 1, CTAThreads: 32, Scalars: []int64{1}, Buffers: []Binding{{Size: 0}}},
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid launch accepted", i)
		}
	}
	unanalyzed := &Kernel{Name: "u", Code: []Instr{{Op: OpExit}}}
	if err := (&Launch{Kernel: unanalyzed, GridDim: 1, CTAThreads: 32}).Validate(); err == nil {
		t.Error("unanalyzed kernel accepted")
	}
}

func TestUniformFastPathMatchesLaneful(t *testing.T) {
	// Property: uniform-operand ALU results equal per-lane evaluation.
	ops := []struct {
		op  Op
		str string
	}{{OpAdd, "add"}, {OpSub, "sub"}, {OpMul, "mul"}, {OpAnd, "and"},
		{OpOr, "or"}, {OpXor, "xor"}, {OpMin, "min"}, {OpMax, "max"},
		{OpDiv, "div"}, {OpRem, "rem"}}
	f := func(a, b int64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		// alu() is the single implementation; verify symmetry of the
		// uniform path by executing a kernel both ways.
		src := `
.kernel p
.param .ptr OUT
.param .u64 a
.param .u64 b
  ` + op.str + ` r0, a, b
  mov r1, %laneid
  ` + op.str + ` r2, a, b
  exit
`
		k := MustParse(src)
		l := &Launch{Kernel: k, GridDim: 1, CTAThreads: 32,
			Scalars: []int64{a, b}, Buffers: []Binding{{Base: 0, Size: 64}}}
		w := NewWarp(l, 0, 0)
		var mem MemInfo
		for !w.Exited {
			w.Exec(&mem)
		}
		// r0 computed before any laneful value existed (uniform path);
		// r2 after (same). Both must equal alu reference.
		want := alu(op.op, a, b, 0)
		return w.Regs[0].Lane(3) == want && w.Regs[2].Lane(17) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrRegsAndNeedMask(t *testing.T) {
	k := MustParse(`
.kernel masks
.param .ptr A
  mad r3, r1, r2, r0
  exit
`)
	in := &k.Code[0]
	if in.NeedMask != 0b1111 {
		t.Fatalf("NeedMask %b", in.NeedMask)
	}
	srcs, n, dst := InstrRegs(in)
	if n != 3 || dst != 3 {
		t.Fatalf("srcs=%v n=%d dst=%d", srcs, n, dst)
	}
}

func TestMemInfoCoalescingInputs(t *testing.T) {
	// 32 lanes at stride 8 bytes cover exactly 2 lines; the SM coalescer
	// consumes Addrs — verify the per-lane addresses are right.
	src := `
.kernel co
.param .ptr A
  mov r0, %laneid
  shl r1, r0, 3
  ld.global.u64 r2, [A + r1]
  exit
`
	l := simpleLaunch(t, src, nil, []Binding{{Base: 0x8000, Size: 4096}})
	w := NewWarp(l, 0, 0)
	_, mems := execAll(t, w, 20)
	for lane := 0; lane < 32; lane++ {
		if mems[0].Addrs[lane] != uint64(0x8000+lane*8) {
			t.Fatalf("lane %d addr %#x", lane, mems[0].Addrs[lane])
		}
	}
	if mems[0].ElemBytes != 8 || mems[0].Store {
		t.Fatal("meminfo metadata wrong")
	}
}

func TestOpLatencies(t *testing.T) {
	if OpDiv.Latency() <= OpAdd.Latency() {
		t.Fatal("div should be slower than add")
	}
	if !OpLd.IsMem() || !OpSt.IsMem() || !OpAtom.IsMem() || OpAdd.IsMem() {
		t.Fatal("IsMem classification wrong")
	}
}

func TestKernelStringAndIndex(t *testing.T) {
	k := MustParse(".kernel s\n.param .ptr A\n.param .u64 n\n  exit\n")
	if k.BufferIndex("A") != 0 || k.BufferIndex("B") != -1 {
		t.Fatal("BufferIndex wrong")
	}
	if k.ScalarIndex("n") != 0 || k.ScalarIndex("m") != -1 {
		t.Fatal("ScalarIndex wrong")
	}
	if !strings.Contains(k.String(), "s") {
		t.Fatal("String() empty")
	}
}

// resetKernel mixes what a reused warp could carry over: laneful and
// uniform values in the same register at different times, a predicate, a
// loop, loads and a store.
const resetKernel = `
.kernel reuse
.param .ptr A
.param .ptr B
.param .u64 n
  mov r0, %tid
  mov r1, %ctaid
  mad r2, r1, 64, r0
  mov r3, 0
  mov r6, 7
loop:
  shl r4, r2, 3
  ld.global.u64 r5, [A + r4]
  add r6, r6, r5
  mov r5, 1
  add r2, r2, 256
  add r3, r3, 1
  setp.lt p0, r3, n
  @p0 bra loop
  shl r4, r0, 3
  st.global.u64 [B + r4], r6
  exit
`

// TestWarpResetMatchesNewWarp: a warp object that has already run one
// warp to completion and is Reset to another behaves exactly as the warp
// NewWarp builds — same instruction stream, same addresses, same final
// registers — and a reused warp runs without allocating.
func TestWarpResetMatchesNewWarp(t *testing.T) {
	l := simpleLaunch(t, resetKernel, []int64{5},
		[]Binding{{Base: 1 << 20, Size: 1 << 16}, {Base: 1 << 24, Size: 1 << 16}})

	reused := NewWarp(l, 0, 0)
	execAll(t, reused, 1000)
	for _, id := range []struct{ cta, w int }{{3, 1}, {1, 0}, {2, 1}} {
		reused.Reset(l, id.cta, id.w)
		fresh := NewWarp(l, id.cta, id.w)
		if reused.PC != 0 || reused.Exited || reused.ActiveMask != fresh.ActiveMask {
			t.Fatalf("cta %d warp %d: Reset left PC=%d exited=%v mask=%#x", id.cta, id.w, reused.PC, reused.Exited, reused.ActiveMask)
		}
		gotOps, gotMems := execAll(t, reused, 1000)
		wantOps, wantMems := execAll(t, fresh, 1000)
		if len(gotMems) != len(wantMems) {
			t.Fatalf("cta %d warp %d: %d memory accesses, fresh warp %d", id.cta, id.w, len(gotMems), len(wantMems))
		}
		for i := range gotMems {
			if gotMems[i] != wantMems[i] {
				t.Fatalf("cta %d warp %d: access %d differs\n got %+v\nwant %+v", id.cta, id.w, i, gotMems[i], wantMems[i])
			}
		}
		for op, n := range wantOps {
			if gotOps[op] != n {
				t.Fatalf("cta %d warp %d: %d x %v, fresh warp %d", id.cta, id.w, gotOps[op], op, n)
			}
		}
		for r := range fresh.Regs {
			for lane := 0; lane < WarpSize; lane++ {
				if g, w := reused.Regs[r].Lane(lane), fresh.Regs[r].Lane(lane); g != w {
					t.Fatalf("cta %d warp %d: r%d lane %d = %d, fresh warp %d", id.cta, id.w, r, lane, g, w)
				}
			}
			if reused.Regs[r].Uniform() != fresh.Regs[r].Uniform() {
				t.Fatalf("cta %d warp %d: r%d uniformity differs", id.cta, id.w, r)
			}
		}
	}

	var mem MemInfo
	allocs := testing.AllocsPerRun(20, func() {
		reused.Reset(l, 1, 1)
		for !reused.Exited {
			reused.Exec(&mem)
		}
	})
	if allocs != 0 {
		t.Fatalf("a reused warp allocated %.0f objects per run", allocs)
	}
}

// TestWarpsAllocateNothingOnceWarm: a set of warp contexts that has run a
// kernel whose loads spread registers runs the launch again — Fit, then
// every warp of every CTA Reset in turn — without allocating: a lane
// vector goes back to the pool when its register goes uniform or its warp
// is reset, and the next spread takes it.
func TestWarpsAllocateNothingOnceWarm(t *testing.T) {
	l := simpleLaunch(t, resetKernel, []int64{5}, []Binding{
		{Base: 1 << 20, Size: 1 << 16, Value: func(i int64) int64 { return i ^ 0x55 }},
		{Base: 1 << 24, Size: 1 << 16}})
	var ws Warps
	var mem MemInfo
	spread := 0
	run := func() {
		warps := ws.Fit(l, l.WarpsPerCTA())
		for cta := 0; cta < l.GridDim; cta++ {
			for wi := range warps {
				w := &warps[wi]
				for w.Reset(l, cta, wi); !w.Exited; w.Exec(&mem) {
					if w.Regs[5].lanes != nil {
						spread++
					}
				}
			}
		}
	}
	run()
	if spread == 0 {
		t.Fatal("no load spread r5: the kernel does not exercise the pool")
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warm Warps allocated %.0f objects per launch", allocs)
	}
}

// TestOpsTableComplete: every opcode has its row — a mnemonic String
// prints and a latency the SM can schedule by — and every plain ALU row
// parses back to its own opcode with the operand count it declares.
func TestOpsTableComplete(t *testing.T) {
	if len(ops) != int(OpExit)+1 {
		t.Fatalf("ops has %d rows for %d opcodes", len(ops), int(OpExit)+1)
	}
	for i, d := range ops {
		op := Op(i)
		if d.name == "" || op.String() != d.name || op.Latency() < 1 {
			t.Errorf("op %d: name %q, latency %d", i, d.name, op.Latency())
		}
		got, nsrc, err := aluOp(d.name)
		if d.srcs == 0 {
			if err == nil {
				t.Errorf("%s has a grammar arm of its own and must not parse as a plain ALU op", d.name)
			}
		} else if err != nil || got != op || nsrc != int(d.srcs) {
			t.Errorf("aluOp(%q) = %v, %d, %v", d.name, got, nsrc, err)
		}
	}
	if OpDiv.Latency() != 20 || OpFma.Latency() != 4 || OpMad.Latency() != 5 || OpAdd.Latency() != 2 {
		t.Error("a latency moved; every digest moves with it")
	}
}

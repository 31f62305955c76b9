package kir

// AnalyzeReadOnly is the compiler pass of Section 5.2: a data-flow
// analysis over the kernel body that classifies every buffer parameter as
// read-only or read-write within the kernel boundary, then rewrites loads
// from read-only buffers (ld.global -> ld.global.ro) so the hardware can
// identify replication candidates.
//
// The IR names the buffer of every memory operation statically (pointer
// arithmetic happens in the byte-offset operand, never across buffers), so
// the may-write set is exact: a buffer is read-write iff some st.global or
// atom.global in the kernel targets it — including instructions that are
// predicated off dynamically, which a static analysis must conservatively
// assume may execute. A buffer that is read-only in this kernel may be
// read-write in the next one; the runtime flushes replicas at kernel
// boundaries for exactly that reason (Section 5.3).
//
// Parse runs the pass on every kernel it compiles; a hand-built Kernel
// needs it before launch. It is idempotent.
func AnalyzeReadOnly(k *Kernel) {
	written := make([]bool, len(k.Buffers))
	for i := range k.Code {
		in := &k.Code[i]
		if in.Op == OpSt || in.Op == OpAtom {
			written[in.Buf] = true
		}
	}
	for b := range k.Buffers {
		k.Buffers[b].ReadOnly = !written[b]
	}
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case OpLd:
			if k.Buffers[in.Buf].ReadOnly {
				in.Op = OpLdRO
			}
		case OpLdRO:
			// A hand-written .ro load on a buffer the analysis proves
			// read-write would be unsound: demote it.
			if !k.Buffers[in.Buf].ReadOnly {
				in.Op = OpLd
			}
		}
	}
	k.Analyzed = true
}

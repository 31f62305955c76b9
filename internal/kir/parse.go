package kir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse compiles the textual kernel assembly into a verified Kernel and
// runs the read-only analysis of Section 5.2 on it (AnalyzeReadOnly).
//
// Grammar (one statement per line; '//' or '#' start a comment):
//
//	.kernel <name>
//	.param .ptr <name>          pointer parameter (global buffer)
//	.param .u64 <name>          scalar parameter (bound at launch)
//	<label>:                    branch target
//	[@p0|@!p0] <op> <operands>  instruction, optionally predicated
//
// Memory operands have the form [Buf + r3], [Buf + 128] or [Buf], with the
// offset in bytes. ld/st/atom carry a .u32 or .u64 suffix selecting the
// per-lane access size.
func Parse(src string) (*Kernel, error) {
	p := &parser{labels: make(map[string]int)}
	if err := p.run(src); err != nil {
		return nil, err
	}
	AnalyzeReadOnly(p.k)
	return p.k, nil
}

// MustParse is Parse that panics on error; used for the built-in workload
// kernels, which are compiled at package init and covered by tests.
func MustParse(src string) *Kernel {
	k, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return k
}

type parser struct {
	k      *Kernel
	labels map[string]int
	// fixups are (instruction index, label, line) triples resolved after
	// the full body is parsed.
	fixups []fixup
}

type fixup struct {
	instr int
	label string
	line  int
}

func (p *parser) run(src string) error {
	p.k = &Kernel{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.statement(line, lineNo+1); err != nil {
			return fmt.Errorf("kir: line %d: %w", lineNo+1, err)
		}
	}
	if p.k.Name == "" {
		return fmt.Errorf("kir: missing .kernel directive")
	}
	for _, f := range p.fixups {
		t, ok := p.labels[f.label]
		if !ok {
			return fmt.Errorf("kir: line %d: undefined label %q", f.line, f.label)
		}
		p.k.Code[f.instr].Target = int32(t)
	}
	if len(p.k.Code) == 0 || p.k.Code[len(p.k.Code)-1].Op != OpExit {
		return fmt.Errorf("kir: kernel %s must end with exit", p.k.Name)
	}
	for i := range p.k.Code {
		in := &p.k.Code[i]
		srcs, n, dst := InstrRegs(in)
		for j := 0; j < n; j++ {
			in.NeedMask |= 1 << uint(srcs[j])
		}
		if dst >= 0 {
			in.NeedMask |= 1 << uint(dst)
		}
	}
	return nil
}

func (p *parser) statement(line string, lineNo int) error {
	switch {
	case strings.HasPrefix(line, ".kernel"):
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf(".kernel wants a name")
		}
		p.k.Name = f[1]
		return nil
	case strings.HasPrefix(line, ".param"):
		f := strings.Fields(line)
		if len(f) != 3 {
			return fmt.Errorf(".param wants a type and a name")
		}
		switch f[1] {
		case ".ptr":
			if p.k.BufferIndex(f[2]) >= 0 || p.k.ScalarIndex(f[2]) >= 0 {
				return fmt.Errorf("duplicate parameter %q", f[2])
			}
			p.k.Buffers = append(p.k.Buffers, BufferParam{Name: f[2]})
		case ".u64", ".u32":
			if p.k.BufferIndex(f[2]) >= 0 || p.k.ScalarIndex(f[2]) >= 0 {
				return fmt.Errorf("duplicate parameter %q", f[2])
			}
			p.k.ScalarParams = append(p.k.ScalarParams, f[2])
		default:
			return fmt.Errorf("unknown parameter type %q", f[1])
		}
		return nil
	case strings.HasSuffix(line, ":"):
		name := strings.TrimSuffix(line, ":")
		if !isIdent(name) {
			return fmt.Errorf("bad label %q", name)
		}
		if _, dup := p.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		p.labels[name] = len(p.k.Code)
		return nil
	default:
		return p.instruction(line, lineNo)
	}
}

func (p *parser) instruction(line string, lineNo int) error {
	in := Instr{Dst: -1, Pred: -1, PredSrc: -1, Buf: -1, Line: lineNo}

	// Optional guard: @p0 or @!p0.
	if strings.HasPrefix(line, "@") {
		rest := line[1:]
		if strings.HasPrefix(rest, "!") {
			in.PredNeg = true
			rest = rest[1:]
		}
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return fmt.Errorf("guard without instruction")
		}
		pi, err := p.predIndex(rest[:sp])
		if err != nil {
			return err
		}
		in.Pred = int8(pi)
		line = strings.TrimSpace(rest[sp:])
	}

	sp := strings.IndexAny(line, " \t")
	mnemonic := line
	args := ""
	if sp >= 0 {
		mnemonic = line[:sp]
		args = strings.TrimSpace(line[sp:])
	}
	ops := splitOperands(args)

	switch {
	case mnemonic == "exit":
		in.Op = OpExit
	case mnemonic == "bar.sync" || mnemonic == "bar":
		in.Op = OpBar
	case mnemonic == "bra":
		in.Op = OpBra
		if len(ops) != 1 || !isIdent(ops[0]) {
			return fmt.Errorf("bra wants one label")
		}
		p.fixups = append(p.fixups, fixup{instr: len(p.k.Code), label: ops[0], line: lineNo})
	case strings.HasPrefix(mnemonic, "setp."):
		in.Op = OpSetp
		cc, err := parseCmp(strings.TrimPrefix(mnemonic, "setp."))
		if err != nil {
			return err
		}
		in.Cmp = cc
		if len(ops) != 3 {
			return fmt.Errorf("setp wants pd, a, b")
		}
		pd, err := p.predIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(pd)
		if err := p.sources(&in, ops[1:]); err != nil {
			return err
		}
	case mnemonic == "sel":
		in.Op = OpSel
		if len(ops) != 4 {
			return fmt.Errorf("sel wants rd, p, a, b")
		}
		rd, err := p.regIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(rd)
		ps, err := p.predIndex(ops[1])
		if err != nil {
			return err
		}
		in.PredSrc = int8(ps)
		if err := p.sources(&in, ops[2:]); err != nil {
			return err
		}
	case strings.HasPrefix(mnemonic, "ld.global") || strings.HasPrefix(mnemonic, "st.global") ||
		strings.HasPrefix(mnemonic, "atom.global"):
		if err := p.memInstr(&in, mnemonic, ops); err != nil {
			return err
		}
	default:
		op, nsrc, err := aluOp(mnemonic)
		if err != nil {
			return err
		}
		in.Op = op
		if len(ops) != nsrc+1 {
			return fmt.Errorf("%s wants %d operands", mnemonic, nsrc+1)
		}
		rd, err := p.regIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(rd)
		if err := p.sources(&in, ops[1:]); err != nil {
			return err
		}
	}
	p.k.Code = append(p.k.Code, in)
	return nil
}

func (p *parser) memInstr(in *Instr, mnemonic string, ops []string) error {
	elem := int8(4)
	base := mnemonic
	if strings.HasSuffix(base, ".u64") {
		elem = 8
		base = strings.TrimSuffix(base, ".u64")
	} else if strings.HasSuffix(base, ".u32") {
		base = strings.TrimSuffix(base, ".u32")
	}
	in.ElemBytes = elem
	switch base {
	case "ld.global":
		in.Op = OpLd
		if len(ops) != 2 {
			return fmt.Errorf("ld wants rd, [Buf + off]")
		}
		rd, err := p.regIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(rd)
		return p.memOperand(in, ops[1])
	case "ld.global.ro":
		// Accepted for completeness but normally compiler-generated.
		in.Op = OpLdRO
		if len(ops) != 2 {
			return fmt.Errorf("ld.ro wants rd, [Buf + off]")
		}
		rd, err := p.regIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(rd)
		return p.memOperand(in, ops[1])
	case "st.global":
		in.Op = OpSt
		if len(ops) != 2 {
			return fmt.Errorf("st wants [Buf + off], v")
		}
		if err := p.memOperand(in, ops[0]); err != nil {
			return err
		}
		v, err := p.operand(ops[1])
		if err != nil {
			return err
		}
		in.Src[1] = v
		return nil
	case "atom.global.add":
		in.Op = OpAtom
		if len(ops) != 3 {
			return fmt.Errorf("atom wants rd, [Buf + off], v")
		}
		rd, err := p.regIndex(ops[0])
		if err != nil {
			return err
		}
		in.Dst = int8(rd)
		if err := p.memOperand(in, ops[1]); err != nil {
			return err
		}
		v, err := p.operand(ops[2])
		if err != nil {
			return err
		}
		in.Src[1] = v
		return nil
	default:
		return fmt.Errorf("unknown memory op %q", mnemonic)
	}
}

// memOperand parses "[Buf + off]" into in.Buf and in.Src[0].
func (p *parser) memOperand(in *Instr, s string) error {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return fmt.Errorf("bad memory operand %q", s)
	}
	inner := strings.ReplaceAll(s[1:len(s)-1], " ", "")
	name := inner
	off := ""
	if i := strings.IndexByte(inner, '+'); i >= 0 {
		name, off = inner[:i], inner[i+1:]
	}
	bi := p.k.BufferIndex(name)
	if bi < 0 {
		return fmt.Errorf("unknown buffer %q", name)
	}
	in.Buf = int16(bi)
	if off == "" {
		in.Src[0] = Operand{Kind: OpdImm, Val: 0}
		return nil
	}
	o, err := p.operand(off)
	if err != nil {
		return err
	}
	in.Src[0] = o
	return nil
}

func (p *parser) sources(in *Instr, ops []string) error {
	if len(ops) > 3 {
		return fmt.Errorf("too many operands")
	}
	for i, s := range ops {
		o, err := p.operand(s)
		if err != nil {
			return err
		}
		in.Src[i] = o
	}
	return nil
}

func (p *parser) operand(s string) (Operand, error) {
	switch {
	case s == "":
		return Operand{}, fmt.Errorf("empty operand")
	case strings.HasPrefix(s, "%"):
		sp, err := parseSpecial(s)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpdSpecial, Val: int64(sp)}, nil
	case s[0] == 'r' && isNumeric(s[1:]):
		ri, err := p.regIndex(s)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpdReg, Val: int64(ri)}, nil
	case s[0] == '-' || isNumeric(s) || strings.HasPrefix(s, "0x"):
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad immediate %q", s)
		}
		return Operand{Kind: OpdImm, Val: v}, nil
	case isIdent(s):
		si := p.k.ScalarIndex(s)
		if si < 0 {
			return Operand{}, fmt.Errorf("unknown scalar parameter %q", s)
		}
		return Operand{Kind: OpdParam, Val: int64(si)}, nil
	default:
		return Operand{}, fmt.Errorf("bad operand %q", s)
	}
}

func (p *parser) regIndex(s string) (int, error) {
	if len(s) < 2 || s[0] != 'r' || !isNumeric(s[1:]) {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, _ := strconv.Atoi(s[1:])
	if n < 0 || n >= MaxRegs {
		return 0, fmt.Errorf("register %q out of range (max r%d)", s, MaxRegs-1)
	}
	if n+1 > p.k.NumRegs {
		p.k.NumRegs = n + 1
	}
	return n, nil
}

func (p *parser) predIndex(s string) (int, error) {
	if len(s) < 2 || s[0] != 'p' || !isNumeric(s[1:]) {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	n, _ := strconv.Atoi(s[1:])
	if n < 0 || n >= MaxPreds {
		return 0, fmt.Errorf("predicate %q out of range (max p%d)", s, MaxPreds-1)
	}
	if n+1 > p.k.NumPreds {
		p.k.NumPreds = n + 1
	}
	return n, nil
}

// aluOp looks a plain ALU mnemonic up in the ops table.
func aluOp(m string) (Op, int, error) {
	for op, d := range ops {
		if d.srcs > 0 && d.name == m {
			return Op(op), int(d.srcs), nil
		}
	}
	return OpNop, 0, fmt.Errorf("unknown instruction %q", m)
}

func parseCmp(s string) (Cmp, error) {
	switch s {
	case "lt":
		return CmpLT, nil
	case "le":
		return CmpLE, nil
	case "gt":
		return CmpGT, nil
	case "ge":
		return CmpGE, nil
	case "eq":
		return CmpEQ, nil
	case "ne":
		return CmpNE, nil
	default:
		return 0, fmt.Errorf("unknown setp condition %q", s)
	}
}

func parseSpecial(s string) (Special, error) {
	switch s {
	case "%tid", "%tid.x":
		return SpecTid, nil
	case "%ctaid", "%ctaid.x":
		return SpecCtaid, nil
	case "%ntid", "%ntid.x":
		return SpecNtid, nil
	case "%nctaid", "%nctaid.x":
		return SpecNctaid, nil
	case "%warpid":
		return SpecWarpid, nil
	case "%laneid":
		return SpecLaneid, nil
	default:
		return 0, fmt.Errorf("unknown special register %q", s)
	}
}

// splitOperands splits an operand list on commas that are outside
// brackets, trimming whitespace.
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

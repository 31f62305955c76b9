package kir

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// kernelSources returns every string literal holding a kernel in the Go
// file at path: the suite's templates (internal/workload, behind its 29
// benchmarks) and the custom-kernel example's.
func kernelSources(tb testing.TB, path string) []string {
	tb.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var srcs []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, ".kernel ") {
				srcs = append(srcs, s)
			}
		}
		return true
	})
	if len(srcs) == 0 {
		tb.Fatalf("%s holds no kernel", path)
	}
	return srcs
}

// fuzzExecSteps bounds FuzzParse's exec stage: a kernel may loop for ever.
const fuzzExecSteps = 10_000

// FuzzParse feeds arbitrary text to the parser and what it accepts to the
// read-only analysis and then the interpreter. A malformed kernel is a
// "kir: " error, never a panic or a half-built kernel; the analysis marks
// read-only only a buffer no store or atomic writes, and leaves an .ro
// load on no other; and the kernel runs for up to fuzzExecSteps
// instructions on the one warp of a one-CTA launch, every parameter bound,
// without a panic. The one panic the interpreter may raise is its refusal
// of a divergent branch, which depends on lane values no parse can know.
func FuzzParse(f *testing.F) {
	for _, path := range []string{"../workload/kernels.go", "../../examples/customkernel/main.go"} {
		for _, src := range kernelSources(f, path) {
			f.Add(src)
		}
	}
	// The exec stage's two limits: a divergent branch and an endless loop.
	f.Add(".kernel d\n  setp.lt p0, %laneid, 3\n  @p0 bra end\n  mov r0, 1\nend:\n  exit\n")
	f.Add(".kernel l\nloop:\n  bra loop\n  exit\n")
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			if k != nil || !strings.HasPrefix(err.Error(), "kir: ") {
				t.Fatalf("Parse failed with kernel %v and error %q", k, err)
			}
			return
		}
		for i := range k.Code {
			in := &k.Code[i]
			ro := in.Op.IsMem() && k.Buffers[in.Buf].ReadOnly
			if (in.Op == OpSt || in.Op == OpAtom) && ro {
				t.Fatalf("line %d: %v writes buffer %s, marked read-only", in.Line, in.Op, k.Buffers[in.Buf].Name)
			}
			if in.Op == OpLdRO && !ro {
				t.Fatalf("line %d: .ro load of buffer %s, which the kernel writes", in.Line, k.Buffers[in.Buf].Name)
			}
		}
		execBounded(t, k)
	})
}

// execBounded is FuzzParse's exec stage.
func execBounded(t *testing.T, k *Kernel) {
	l := &Launch{Kernel: k, GridDim: 1, CTAThreads: WarpSize, Scalars: make([]int64, len(k.ScalarParams))}
	for i := range l.Scalars {
		l.Scalars[i] = int64(i + 3)
	}
	for i := range k.Buffers {
		l.Buffers = append(l.Buffers, Binding{Base: uint64(i+1) << 32, Size: 1 << 12, Value: func(e int64) int64 { return 7*e + 1 }})
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("a parsed, analysed kernel with every parameter bound: %v", err)
	}
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(string); !ok || !strings.HasPrefix(s, "kir: ") || !strings.Contains(s, "divergent branch") {
				t.Fatalf("exec panicked: %v", r)
			}
		}
	}()
	w := NewWarp(l, 0, 0)
	var mem MemInfo
	for i := 0; i < fuzzExecSteps && !w.Exited; i++ {
		w.Exec(&mem)
	}
}

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

// FuzzParse feeds arbitrary text to the parser and what it accepts to the
// read-only analysis. A malformed kernel is a "kir: " error, never a panic
// or a half-built kernel, and the analysis marks read-only only a buffer
// no store or atomic writes, and leaves an .ro load on no other.
func FuzzParse(f *testing.F) {
	for _, path := range []string{"../workload/kernels.go", "../../examples/customkernel/main.go"} {
		for _, src := range kernelSources(f, path) {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			if k != nil || !strings.HasPrefix(err.Error(), "kir: ") {
				t.Fatalf("Parse failed with kernel %v and error %q", k, err)
			}
			return
		}
		AnalyzeReadOnly(k)
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
	})
}

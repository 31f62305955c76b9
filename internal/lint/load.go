// Package lint implements nubalint, the repo's stdlib-only static
// analyzer, which TestRepoLintsClean runs over the module. It loads and type-checks every package in the module with
// go/parser + go/types (no x/tools dependency) and holds it to the five
// rules listed in rules.go under a Policy (policy.go). What the rules
// are for, and the //nubalint:ignore contract, is DESIGN.md §7.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module locates a Go module on disk.
type Module struct {
	// Path is the module path declared in go.mod.
	Path string
	// Dir is the absolute path of the module root.
	Dir string
}

// FindModule walks up from dir to the nearest go.mod and returns the
// enclosing module.
func FindModule(dir string) (Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return Module{}, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := modulePath(data)
			if path == "" {
				return Module{}, fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return Module{Path: path, Dir: d}, nil
		}
		if filepath.Dir(d) == d {
			return Module{}, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Rel is the module-relative directory ("" for the root package).
	Rel string
	// ImportPath is the full import path.
	ImportPath string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info hold the type-check results.
	Types *types.Package
	Info  *types.Info
}

// RelName is Rel with "" spelled "." (the policy-file spelling of the
// root package).
func (p *Package) RelName() string {
	if p.Rel == "" {
		return "."
	}
	return p.Rel
}

// Program is a loaded module ready for analysis.
type Program struct {
	Fset *token.FileSet
	Mod  Module
	// Pkgs are the target packages, sorted by Rel.
	Pkgs []*Package
}

// RelFile returns pos's file path relative to the module root.
func (p *Program) RelFile(pos token.Pos) string {
	f := p.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(p.Mod.Dir, f); err == nil {
		return filepath.ToSlash(rel)
	}
	return f
}

// loader parses and type-checks packages on demand. Module-internal
// import paths resolve by directory under the module root; everything
// else goes to the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	mod     Module
	std     types.ImporterFrom
	pkgs    map[string]*Package // by module-relative dir
	loading map[string]bool     // cycle detection
}

func newLoader(mod Module) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		mod:     mod,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.mod.Dir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.relOf(path); ok {
		p, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// relOf maps a module-internal import path to its module-relative
// directory.
func (l *loader) relOf(path string) (string, bool) {
	if path == l.mod.Path {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, l.mod.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

// load parses and type-checks the package in the module-relative
// directory rel, caching the result.
func (l *loader) load(rel string) (*Package, error) {
	if p, ok := l.pkgs[rel]; ok {
		return p, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("import cycle through %q", filepath.Join(l.mod.Path, rel))
	}
	l.loading[rel] = true
	defer delete(l.loading, rel)

	dir := filepath.Join(l.mod.Dir, filepath.FromSlash(rel))
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	importPath := l.mod.Path
	if rel != "" {
		importPath = l.mod.Path + "/" + rel
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	p := &Package{Rel: rel, ImportPath: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[rel] = p
	return p, nil
}

// goSources lists the non-test .go files of dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Load parses and type-checks every package of the module: the liveness
// rules are module-wide, so a part of it is not a thing nubalint can
// lint. Directories named testdata, hidden directories, and nested
// modules are never traversed.
func Load(mod Module) (*Program, error) {
	rels, err := packageDirs(mod.Dir)
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	l := newLoader(mod)
	prog := &Program{Fset: l.fset, Mod: mod}
	for _, rel := range rels {
		p, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	return prog, nil
}

// packageDirs walks the module and returns every module-relative
// directory containing non-test Go sources.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A nested go.mod starts a different module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

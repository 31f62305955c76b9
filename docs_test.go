package nuba

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocs holds the Markdown documentation to the code, so the docs
// cannot silently drift from the CLIs they describe: docDrift on this
// repository must find nothing, and on a temporary root whose README
// drifts in each way docDrift checks it must name each drift once.
func TestDocs(t *testing.T) {
	problems, err := docDrift(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}

	root := t.TempDir()
	for name, content := range map[string]string{
		"cmd/tool/main.go": "package main\n\nimport \"flag\"\n\nvar real = flag.String(\"real\", \"\", \"\")\n\n" +
			"func main() { fs := flag.NewFlagSet(\"tool\", flag.ExitOnError); fs.Bool(\"set\", false, \"\"); more(fs) }\n\n" +
			"func more(fs *flag.FlagSet) { fs.Int(\"param\", 0, \"\") }\n\n" +
			"type opts struct{}\n\nfunc (opts) String(s string) string { return s }\n\nfunc ghost() { var o opts; o.String(\"ghost\") }\n",
		"Makefile": "GO ?= go\n\n.PHONY: check\n\ncheck:\n\t$(GO) vet ./...\n",
		"DESIGN.md": "# design\n\n## 1. What we build\n\n* **NoC.** Links.\n\n### Parks\n\n" +
			"See (§1, \"NoC\"), the paper's (§7.6) and (§2).\n",
		"EXPERIMENTS.md":        "# experiments\n",
		"internal/sim/sim.go":   "package sim\n\n// Drain drains.\nfunc Drain() {}\n\n// WakeSet wakes.\ntype WakeSet struct{ nextAt int }\n",
		"cmd/tool/main_test.go": "package main\n\nimport \"testing\"\n\nfunc TestRealThing(t *testing.T) {}\n",
		"README.md": "Run `tool -real x -set -param 1` or `make check`; see [the design](DESIGN.md).\n\n" +
			"Then `tool -nosuchflag -ghost`, [a page](docs/MISSING.md) and:\n\n" +
			"```sh\nmake nosuchtarget   # retired\n```\n\n" +
			"Held by `TestRealThing`, `TestReal*` and `tool.TestHelper()`; not by `TestNoSuchThing` or `BenchmarkNo*`.\n\n" +
			"Why: DESIGN.md §1; the cycle loop was DESIGN.md\n§9 before it moved.\n\n" +
			"Held there: DESIGN.md §1 \"Parks\", not DESIGN.md §1\n\"Parsk\".\n\n" +
			"```\nPLACEHOLDER_FIG10 MeanSpeedup\n```\n\n" +
			"Go names: `sim.Drain`, `WakeSet.nextAt`, `flag.NewFlagSet`, `sim.flits`, `main.go`, `NUBA`, `SMs`, `T`; " +
			"not `sendWake` or `sim.Nope`, nor\n\n```go\nsim.Drain(lostName)\n```\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err = docDrift(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"README.md: flag -nosuchflag is not defined",
		"README.md: flag -ghost is not defined",
		`README.md: link target "docs/MISSING.md" does not resolve`,
		"README.md: make nosuchtarget is not a target",
		"README.md: TestNoSuchThing is not declared",
		"README.md: BenchmarkNo* is not declared",
		"README.md: §9 is not a numbered section",
		"DESIGN.md: §2 is not a numbered section",
		`README.md: §1 "Parsk" names no sub-section of DESIGN.md §1`,
		"README.md: PLACEHOLDER_FIG10 stands where generated output belongs",
		"README.md: sendWake is not declared in the module",
		"README.md: sim.Nope is not declared in the module",
		"README.md: lostName is not declared in the module",
	} {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.HasPrefix(p, want) }) {
			t.Errorf("drifted docs: no problem names %q", want)
		}
	}
	if len(problems) != 13 {
		t.Errorf("%d problems reported, want exactly the 13 seeded ones:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}

// docDrift cross-checks the Markdown documentation under root against
// the code under it and returns one line per drift:
//
//   - every CLI flag mentioned in a documentation code span (inline
//     backticks or fenced blocks) must exist in some cmd/* flag set,
//     parsed straight out of the sources with go/parser — or be a
//     known flag of an external tool (go test -race, jq -r, ...);
//   - every `make <target>` in a code span must be a target of the root
//     Makefile;
//   - every `TestXxx` / `BenchmarkXxx` in a code span must be a function
//     declared in some _test.go under the root (a trailing `*` makes it
//     a prefix: `TestStress*`);
//   - every other Go name quoted in an inline span or a ```go block must
//     be declared by some Go file under the root: a CamelCase word
//     (`sendPark`), and a name with a capital qualified by one of its
//     packages (`sim.Drain`); names qualified by an imported outside
//     package (`time.Since`), file names and all-caps words are prose;
//   - every intra-repo Markdown link must resolve to an existing file
//     or directory;
//   - every `DESIGN.md §N` pointer (and in DESIGN.md every `(§N`, N an
//     integer) must name a numbered `## N.` heading of DESIGN.md, and
//     every quoted `§N "Name"` a `### Name` heading or `* **Name.**` lead
//     inside it;
//   - no checked file may carry a PLACEHOLDER token — a stand-in for a
//     table nobody generated (EXPERIMENTS.md shipped three from the seed
//     commit on).
//
// Checked files: README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md —
// the user-facing documentation. Process records (CHANGES.md, ISSUE.md,
// ROADMAP.md, PAPER*.md, SNIPPETS.md) are exempt. The error is for what
// docDrift cannot read, which is no drift it can report.
func docDrift(root string) ([]string, error) {
	defined, err := definedFlags(root)
	if err != nil {
		return nil, err
	}
	if len(defined) == 0 {
		return nil, fmt.Errorf("no flags found under %s/cmd", root)
	}
	targets, err := makeTargets(root)
	if err != nil {
		return nil, err
	}
	mod, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	docs, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	sections := subsections(string(design))

	var problems []string
	for _, doc := range docs {
		rel, _ := filepath.Rel(root, doc)
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		text := string(data)

		spans, goSpans := codeSpans(text)
		for _, f := range mentions(spans, flagRe) {
			f = strings.TrimRight(f, "-")
			if !defined[f] && !externalFlags[f] {
				problems = append(problems,
					fmt.Sprintf("%s: flag -%s is not defined by any cmd/* binary", rel, f))
			}
		}
		for _, target := range mentions(spans, makeRe) {
			if !targets[target] {
				problems = append(problems,
					fmt.Sprintf("%s: make %s is not a target of the Makefile", rel, target))
			}
		}
		for _, name := range mentions(spans, testRe) {
			if !declared(mod.tests, name) {
				problems = append(problems,
					fmt.Sprintf("%s: %s is not declared in any _test.go", rel, name))
			}
		}
		for _, name := range mod.undeclared(goSpans) {
			problems = append(problems,
				fmt.Sprintf("%s: %s is not declared in the module", rel, name))
		}
		for _, target := range intraRepoLinks(text) {
			p := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: link target %q does not resolve", rel, target))
			}
		}
		pointers := sectionRe
		if rel == "DESIGN.md" {
			pointers = designSectionRe
		}
		for _, m := range pointers.FindAllStringSubmatch(text, -1) {
			if sections[m[1]] == nil {
				problems = append(problems,
					fmt.Sprintf("%s: §%s is not a numbered section of DESIGN.md", rel, m[1]))
			}
		}
		for _, m := range quotedRe.FindAllStringSubmatch(text, -1) {
			if name := strings.Join(strings.Fields(m[2]), " "); !sections[m[1]][name] {
				problems = append(problems, fmt.Sprintf("%s: §%s %q names no sub-section of DESIGN.md §%s", rel, m[1], name, m[1]))
			}
		}
		for _, tok := range placeholderRe.FindAllString(text, -1) {
			problems = append(problems,
				fmt.Sprintf("%s: %s stands where generated output belongs", rel, tok))
		}
	}
	return problems, nil
}

// externalFlags are flags the docs legitimately mention that belong to
// external tooling, not to a cmd/* binary. Only what a checked doc
// quotes today is listed: an entry nothing uses would only let a
// same-named typo through.
var externalFlags = map[string]bool{
	"o":      true, // go build -o
	"race":   true, // go test -race
	"r":      true, // jq -r
	"top":    true, // go tool pprof -top
	"cum":    true, // go tool pprof -cum
	"sample": true, // go tool pprof -sample_index (the match stops at the underscore)
}

// docFiles returns the user-facing Markdown files to check.
func docFiles(root string) ([]string, error) {
	var docs []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		p := filepath.Join(root, name)
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("required doc %s missing: %w", name, err)
		}
		docs = append(docs, p)
	}
	extra, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	return append(docs, extra...), nil
}

// definedFlags parses every Go file under cmd/ — and the one package
// that registers flags on the CLIs' behalf, internal/hostprof — and
// collects the names registered through the flag package or a flag set,
// which these files always name fs (flag.String("name", ...),
// fs.BoolVar(&v, "name", ...) etc.).
func definedFlags(root string) (map[string]bool, error) {
	var files []string
	for _, dir := range []string{filepath.Join(root, "cmd", "*"), filepath.Join(root, "internal", "hostprof")} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		files = append(files, matches...)
	}
	ctors := map[string]bool{
		"String": true, "Bool": true, "Int": true, "Int64": true,
		"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
		"StringVar": true, "BoolVar": true, "IntVar": true, "Int64Var": true,
		"UintVar": true, "Uint64Var": true, "Float64Var": true, "DurationVar": true,
	}
	defined := make(map[string]bool)
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !ctors[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" && x.Name != "fs" {
				return true
			}
			// The name is the first string-literal argument ("Var"
			// variants take the pointer first).
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						defined[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return defined, nil
}

// flagRe matches a CLI flag mention inside a code span: a dash preceded
// by a token boundary and followed by a letter (so prose hyphens,
// negative numbers, arrows and kebab-case identifiers never match).
var flagRe = regexp.MustCompile(`(?:^|[\s"'(=|])-([a-zA-Z][a-zA-Z0-9-]*)`)

// mentions extracts what re's first group captures — a flag, make
// target or test name — from a document's code spans.
func mentions(spans []string, re *regexp.Regexp) []string {
	var names []string
	for _, span := range spans {
		for _, m := range re.FindAllStringSubmatch(span, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// makeTargetRe matches a rule line of a Makefile ("name:" but not the
// "name :=" of an assignment).
var makeTargetRe = regexp.MustCompile(`(?m)^([A-Za-z0-9][A-Za-z0-9_.-]*)[ \t]*:(?:[^=]|$)`)

// makeTargets returns the targets the root Makefile defines.
func makeTargets(root string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, m := range makeTargetRe.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets, nil
}

// makeRe matches a `make <target>` invocation inside a code span: the
// word after make is the target.
var makeRe = regexp.MustCompile(`(?:^|[\s(])make[ \t]+([A-Za-z0-9][A-Za-z0-9_.-]*)`)

// module is what the Go files under a root declare: the top-level
// functions of _test.go files (tests), every declared identifier by
// package name and under "" (names), and the import paths' last elements
// (imported).
type module struct {
	tests, imported map[string]bool
	names           map[string]map[string]bool
}

// parseModule parses every .go file under root (nested modules included,
// dot-directories and testdata not).
func parseModule(root string) (*module, error) {
	m := &module{tests: map[string]bool{}, imported: map[string]bool{}, names: map[string]map[string]bool{"": {}}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			m.imported[path.Base(strings.Trim(imp.Path.Value, `"`))] = true
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if m.names[pkg] == nil {
			m.names[pkg] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				ids = []*ast.Ident{n.Name}
				if n.Recv == nil && strings.HasSuffix(p, "_test.go") {
					m.tests[n.Name.Name] = true
				}
			case *ast.TypeSpec:
				ids = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				ids = n.Names
			case *ast.Field: // struct fields, interface methods, parameters
				ids = n.Names
			}
			for _, id := range ids {
				m.names[pkg][id.Name], m.names[""][id.Name] = true, true
			}
			return true
		})
		return nil
	})
	return m, err
}

// testRe matches a test or benchmark name inside a code span, with its
// optional prefix star. A name after a dot or inside a longer
// identifier (nuba.BenchmarkByAbbr) is not one.
var testRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])((?:Test|Benchmark)[A-Z][A-Za-z0-9_]*\*?)`)

// declared reports whether a quoted name is a declared test, or, with a
// trailing star, a prefix of one.
func declared(tests map[string]bool, name string) bool {
	prefix, star := strings.CutSuffix(name, "*")
	if !star {
		return tests[name]
	}
	for t := range tests {
		if strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}

// goNameRe matches a possibly qualified Go name inside a code span (not
// the rest of a path, a flag or a kebab-case word); camelRe a word with an
// upper case letter after the first (sendPark, SMsPerPartition: a
// capitalized word may be prose); proseRe an all-caps word, plural or not
// (NUBA, SMs), or a test name, which the test check owns.
var (
	goNameRe = regexp.MustCompile(`(?:^|[^\w./\-])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`)
	camelRe  = regexp.MustCompile(`^[A-Za-z][a-z0-9]*[A-Z][A-Za-z0-9]*$`)
	proseRe  = regexp.MustCompile(`^(?:[A-Z][A-Z0-9]*s?|(?:Test|Benchmark)[A-Z]\w*)$`)
)

// undeclared returns the Go names quoted in spans that the module does not
// declare: CamelCase words, and a name with a capital qualified by one of
// its packages (noc.New; noc.flits is a metric). A name qualified by an
// imported outside package (time.Since) is exempt.
func (m *module) undeclared(spans []string) (bad []string) {
	for _, span := range spans {
		for _, match := range goNameRe.FindAllStringSubmatch(span, -1) {
			parts := strings.Split(match[1], ".")
			pkg := m.names[parts[0]]
			if len(parts) > 1 && pkg == nil && m.imported[parts[0]] {
				continue
			}
			for i, part := range parts {
				known := m.names[""][part] || !camelRe.MatchString(part) || proseRe.MatchString(part)
				if i == 1 && pkg != nil {
					known = pkg[part] || strings.ToLower(part) == part
				}
				if !known {
					bad = append(bad, match[1])
					break
				}
			}
		}
	}
	return bad
}

var inlineCodeRe = regexp.MustCompile("`([^`\n]+)`")

// codeSpans returns the document's fenced code blocks and inline code
// spans — the places where CLI flags are conventionally written — and,
// as goSpans, the ones Go names are quoted in: the inline spans and the
// ```go blocks (the other blocks are shell sessions and program output).
func codeSpans(text string) (spans, goSpans []string) {
	inFence, goFence := false, false
	for _, line := range strings.Split(text, "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") {
			inFence = !inFence
			goFence = inFence && t == "```go"
			continue
		}
		if inFence {
			spans = append(spans, line)
			if goFence {
				goSpans = append(goSpans, line)
			}
			continue
		}
		for _, m := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
			goSpans = append(goSpans, m[1])
		}
	}
	return spans, goSpans
}

// sectionRe matches a pointer into the design document ("DESIGN.md §9",
// possibly wrapped); in DESIGN.md a bare "(§9" is one too, the paper's
// "(§7.6" not. quotedRe matches a pointer to a named sub-section ("§9
// "Parks"", "(§3, "NoC")"), headingRe a numbered section heading ("## 9.
// The cycle loop") and subRe a sub-section inside one: a "### Name"
// heading or a "* **Name.**" lead.
var (
	sectionRe       = regexp.MustCompile(`DESIGN\.md\s+§(\d+)`)
	designSectionRe = regexp.MustCompile(`(?:DESIGN\.md\s+|\()§(\d+)(?:[^\d.]|\.\D)`)
	quotedRe        = regexp.MustCompile(`§(\d+),?\s+"([^"]+)"`)
	headingRe       = regexp.MustCompile(`^## (\d+)\. `)
	subRe           = regexp.MustCompile(`^(?:### (.+)|\* \*\*(.+?)\.\*\*)`)
)

// subsections maps each numbered section of DESIGN.md to the names of its
// sub-sections.
func subsections(design string) map[string]map[string]bool {
	sections := make(map[string]map[string]bool)
	var cur map[string]bool
	for _, line := range strings.Split(design, "\n") {
		if m := headingRe.FindStringSubmatch(line); m != nil {
			cur = make(map[string]bool)
			sections[m[1]] = cur
		} else if m := subRe.FindStringSubmatch(line); m != nil && cur != nil {
			cur[strings.TrimSpace(m[1]+m[2])] = true
		}
	}
	return sections
}

// placeholderRe matches a stand-in left where a command's output was
// meant to be pasted (PLACEHOLDER, PLACEHOLDER_FIG10, ...).
var placeholderRe = regexp.MustCompile(`\bPLACEHOLDER\w*`)

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// intraRepoLinks extracts relative Markdown link targets (external URLs
// and pure anchors are skipped; a target's own #anchor is stripped).
func intraRepoLinks(text string) []string {
	var links []string
	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		t := m[1]
		if strings.Contains(t, "://") || strings.HasPrefix(t, "mailto:") || strings.HasPrefix(t, "#") {
			continue
		}
		if i := strings.IndexByte(t, '#'); i >= 0 {
			t = t[:i]
		}
		if t != "" {
			links = append(links, t)
		}
	}
	return links
}

// Command nubadocs cross-checks the Markdown documentation against the
// code, so the docs cannot silently drift from the CLIs they describe
// (`make docs-check`, wired into `make check` and CI):
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
// ROADMAP.md, PAPER*.md, SNIPPETS.md) are exempt.
//
// Stdlib only, like everything else in the repo.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

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

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	defined, err := definedFlags(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubadocs:", err)
		os.Exit(2)
	}
	if len(defined) == 0 {
		fmt.Fprintln(os.Stderr, "nubadocs: no flags found under cmd/ — wrong -root?")
		os.Exit(2)
	}

	targets, err := makeTargets(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubadocs:", err)
		os.Exit(2)
	}

	tests, err := declaredTests(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubadocs:", err)
		os.Exit(2)
	}

	docs, err := docFiles(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubadocs:", err)
		os.Exit(2)
	}

	design, err := os.ReadFile(filepath.Join(*root, "DESIGN.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nubadocs:", err)
		os.Exit(2)
	}
	sections := subsections(string(design))

	var problems []string
	flagMentions, targetMentions, testMentions, linkChecks, sectionChecks := 0, 0, 0, 0, 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nubadocs:", err)
			os.Exit(2)
		}
		rel, _ := filepath.Rel(*root, doc)
		text := string(data)

		spans := codeSpans(text)
		for _, f := range mentions(spans, flagRe) {
			f = strings.TrimRight(f, "-")
			flagMentions++
			if !defined[f] && !externalFlags[f] {
				problems = append(problems,
					fmt.Sprintf("%s: flag -%s is not defined by any cmd/* binary", rel, f))
			}
		}
		for _, target := range mentions(spans, makeRe) {
			targetMentions++
			if !targets[target] {
				problems = append(problems,
					fmt.Sprintf("%s: make %s is not a target of the Makefile", rel, target))
			}
		}
		for _, name := range mentions(spans, testRe) {
			testMentions++
			if !declared(tests, name) {
				problems = append(problems,
					fmt.Sprintf("%s: %s is not declared in any _test.go", rel, name))
			}
		}
		for _, target := range intraRepoLinks(text) {
			linkChecks++
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
			sectionChecks++
			if sections[m[1]] == nil {
				problems = append(problems,
					fmt.Sprintf("%s: §%s is not a numbered section of DESIGN.md", rel, m[1]))
			}
		}
		for _, m := range quotedRe.FindAllStringSubmatch(text, -1) {
			sectionChecks++
			if name := strings.Join(strings.Fields(m[2]), " "); !sections[m[1]][name] {
				problems = append(problems, fmt.Sprintf("%s: §%s %q names no sub-section of DESIGN.md §%s", rel, m[1], name, m[1]))
			}
		}
		for _, tok := range placeholderRe.FindAllString(text, -1) {
			problems = append(problems,
				fmt.Sprintf("%s: %s stands where generated output belongs", rel, tok))
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "nubadocs:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("nubadocs: %d docs ok (%d flag mentions against %d defined flags, %d make targets, %d test names, %d links, %d section pointers)\n",
		len(docs), flagMentions, len(defined), targetMentions, testMentions, linkChecks, sectionChecks)
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

// declaredTests parses every _test.go under root (nested modules
// included, dot-directories and testdata not) and returns the top-level
// functions a doc can name as a test.
func declaredTests(root string) (map[string]bool, error) {
	tests := make(map[string]bool)
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
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	return tests, err
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

var inlineCodeRe = regexp.MustCompile("`([^`\n]+)`")

// codeSpans returns the document's fenced code blocks and inline code
// spans — the places where CLI flags are conventionally written.
func codeSpans(text string) []string {
	var spans []string
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			spans = append(spans, line)
			continue
		}
		for _, m := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	return spans
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

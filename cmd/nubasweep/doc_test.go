package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
)

// docBlock is one fenced block of nubasweep output in EXPERIMENTS.md: the
// arguments on its `$ nubasweep` line and the lines its body spans.
type docBlock struct {
	line       int // 1-based line of the `$ nubasweep` command
	args       []string
	start, end int // body is lines[start:end], the closing fence is lines[end]
}

// outputRe matches a line only nubasweep prints: a report title or a
// table's separator row.
var outputRe = regexp.MustCompile(`^(== .+ ==|-+(  +-+)+ *)$`)

// docBlocks returns EXPERIMENTS.md's nubasweep blocks, and an error for a
// fenced block that holds nubasweep output under no command line.
func docBlocks(lines []string) ([]docBlock, error) {
	var blocks []docBlock
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") {
			continue
		}
		open := i
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
		}
		if i == len(lines) {
			return nil, fmt.Errorf("line %d: fence never closed", open+1)
		}
		body := lines[open+1 : i]
		if len(body) > 0 && strings.HasPrefix(body[0], "$ nubasweep") {
			args := strings.Fields(strings.TrimPrefix(body[0], "$ nubasweep"))
			blocks = append(blocks, docBlock{line: open + 2, args: args, start: open + 2, end: i})
			continue
		}
		for _, l := range body {
			if outputRe.MatchString(l) {
				return nil, fmt.Errorf("line %d: a block of nubasweep output without its `$ nubasweep` line", open+1)
			}
		}
	}
	return blocks, nil
}

// docNumber is a number as EXPERIMENTS.md writes it: its sign ("+", "-" or
// "" for none given), its digits and whether a % follows.
type docNumber struct {
	sign, digits string
	pct          bool
	at           int // byte offset in the scanned text
}

// key is the number as a lookup key: its digits, signed when a sign is given.
func (n docNumber) key() string { return n.sign + n.digits }

func (n docNumber) String() string {
	if n.pct {
		return n.key() + "%"
	}
	return n.key()
}

// wordByte reports whether b continues a word or a number, so that a digit
// after it starts no number of its own ("FTD2D", "197.25", "s0125").
func wordByte(b byte) bool {
	return b == '.' || b == '_' || b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// docNumbers returns every number of s, each a whole token: digits with an
// optional fraction that no letter, digit, '.' or '_' precedes, so "97.2" is
// never found inside "197.25". A '+' or '-' (U+2212 is read as '-') right
// before it is its sign unless a word or a number precedes that, as in the
// range "0.51-0.58".
func docNumbers(s string) []docNumber {
	s = strings.ReplaceAll(s, "−", "-")
	var ns []docNumber
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' || i > 0 && wordByte(s[i-1]) {
			continue
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j+1 < len(s) && s[j] == '.' && s[j+1] >= '0' && s[j+1] <= '9' {
			for j++; j < len(s) && s[j] >= '0' && s[j] <= '9'; j++ {
			}
		}
		n := docNumber{digits: s[i:j], at: i}
		if i > 0 && (s[i-1] == '+' || s[i-1] == '-') && (i < 2 || !wordByte(s[i-2]) && s[i-2] != '%') {
			n.sign = s[i-1 : i]
		}
		rest := strings.TrimPrefix(s[j:], " ")
		n.pct = strings.HasPrefix(rest, "%")
		ns = append(ns, n)
		i = j
	}
	return ns
}

// paperRe matches a paragraph that states the paper's numbers: it begins
// "Paper:", perhaps after a bold label such as "**GPU size.**".
var paperRe = regexp.MustCompile(`^(\*\*[^*]+\*\* )?Paper:`)

// sentenceEnd matches the end of a sentence: a full stop, question or
// exclamation mark before white space or the end of the text.
var sentenceEnd = regexp.MustCompile(`[.!?](\s|$)`)

// numberSet holds the numbers a prose number may quote, by key: every
// number under its digits and a signed one under its sign as well.
type numberSet map[string]bool

func (set numberSet) add(s string) {
	for _, n := range docNumbers(s) {
		set[n.digits] = true
		set[n.key()] = true
	}
}

// docSection is one "## " section of EXPERIMENTS.md as the number check
// reads it.
type docSection struct {
	title  string
	blocks numberSet // every number of its nubasweep blocks, command lines included
	paper  numberSet // every number of its Paper paragraphs
	prose  []docPara
	hasRun bool // it holds a nubasweep block
}

// docPara is a paragraph of prose: its lines joined by newlines, and the
// 1-based line of the first.
type docPara struct {
	text  string
	first int
}

// proseNumberProblems checks that EXPERIMENTS.md gives every measured
// number one home, the block that prints it. In a section that holds a
// nubasweep block, a prose number — one with a fraction or a % — must be a
// whole token of one of that section's blocks or of its Paper paragraph,
// and a sign the prose gives must match; integer counts such as "28 of 29"
// are exempt. A number only the Paper paragraph holds must also sit in a
// sentence that says "paper", so a stale measurement that happens to equal
// some paper figure is not taken for a quote of it. "Known deltas" may
// quote the numbers of every block and Paper paragraph of the file. Each
// problem names its line.
func proseNumberProblems(lines []string) []string {
	var secs []*docSection
	sec := &docSection{blocks: numberSet{}, paper: numberSet{}} // the header, above the first section
	all := &docSection{blocks: numberSet{}, paper: numberSet{}}
	var para docPara
	endPara := func() {
		switch {
		case para.text == "":
		case paperRe.MatchString(para.text):
			sec.paper.add(para.text)
			all.paper.add(para.text)
		default:
			sec.prose = append(sec.prose, para)
		}
		para = docPara{}
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(l, "## "):
			endPara()
			sec = &docSection{title: strings.TrimPrefix(l, "## "), blocks: numberSet{}, paper: numberSet{}}
			secs = append(secs, sec)
		case strings.HasPrefix(l, "```"):
			endPara()
			open := i
			for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
			}
			if open+1 < len(lines) && strings.HasPrefix(lines[open+1], "$ nubasweep") {
				sec.hasRun = true
				for _, b := range lines[open+1 : i] {
					sec.blocks.add(b)
					all.blocks.add(b)
				}
			}
		case strings.TrimSpace(l) == "" || strings.HasPrefix(l, "#"):
			endPara()
		default:
			if para.text == "" {
				para.first = i + 1
			} else {
				para.text += "\n"
			}
			para.text += strings.ReplaceAll(l, "−", "-") // as docNumbers reads it
		}
	}
	endPara()

	var problems []string
	for _, s := range secs {
		ref := s
		switch {
		case strings.HasPrefix(s.title, "Known deltas"):
			ref = all
		case !s.hasRun:
			continue
		}
		for _, p := range s.prose {
			for _, n := range docNumbers(p.text) {
				if !n.pct && !strings.Contains(n.digits, ".") || ref.blocks[n.key()] {
					continue
				}
				line := p.first + strings.Count(p.text[:n.at], "\n")
				whose := fmt.Sprintf("of %q", s.title)
				if ref == all {
					whose = "of the file"
				}
				switch {
				case !ref.paper[n.key()]:
					problems = append(problems, fmt.Sprintf("%d: %s is in no block or Paper paragraph %s", line, n, whose))
				case !saysPaper(p.text, n.at):
					problems = append(problems, fmt.Sprintf("%d: %s is in no block %s, only in a Paper paragraph, and its sentence does not say it is the paper's", line, n, whose))
				}
			}
		}
	}
	return problems
}

// saysPaper reports whether the sentence of text around byte at names the
// paper.
func saysPaper(text string, at int) bool {
	start, end := 0, len(text)
	for _, m := range sentenceEnd.FindAllStringIndex(text, -1) {
		if m[1] <= at {
			start = m[1]
		} else if m[0] >= at {
			end = m[1]
			break
		}
	}
	return strings.Contains(strings.ToLower(text[start:end]), "paper")
}

// TestExperimentsDoc holds EXPERIMENTS.md to the simulator: every fenced
// block of nubasweep output starts with the `$ nubasweep ARGS` line that
// printed it. Without REGEN it simulates nothing: it parses each command
// as nubasweep does and fails on one nubasweep would refuse, on a block of
// output with no command line and on an experiment no block runs, and it
// fails on a prose number that no block backs (proseNumberProblems). With
// REGEN=1 (`make experiments`) it runs every command through sweep, the
// function nubasweep runs after parsing, and rewrites each body with the
// command's stdout and logs how many simulations it ran and its wall time.
// Commands with the same scale and benchmarks share one runner, so a
// simulation several blocks read runs once.
func TestExperimentsDoc(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	blocks, err := docBlocks(lines)
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md: no `$ nubasweep` block")
	}
	cmds := make([]*command, len(blocks))
	run := map[string]bool{}
	for k, b := range blocks {
		fs := flag.NewFlagSet("nubasweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if cmds[k], err = parse(fs, b.args); err != nil {
			t.Errorf("EXPERIMENTS.md:%d: nubasweep %s: %v", b.line, strings.Join(b.args, " "), err)
			continue
		}
		for _, e := range cmds[k].exps {
			run[e.Name] = true
		}
	}
	for _, p := range proseNumberProblems(lines) {
		t.Errorf("EXPERIMENTS.md:%s", p)
	}
	if t.Failed() {
		return
	}
	for _, name := range experiments.Names() {
		if !run[name] {
			t.Errorf("EXPERIMENTS.md: no block runs -exp %s", name)
		}
	}
	if t.Failed() || os.Getenv("REGEN") == "" {
		return
	}

	start := time.Now()
	runners := map[string]*experiments.Runner{}
	sims := 0
	for k := len(blocks) - 1; k >= 0; k-- { // back to front, so earlier line numbers hold
		c := cmds[k]
		key := fmt.Sprint(c.opts.Scale, abbrs(c.opts.Benchmarks))
		if runners[key] == nil {
			opts := c.opts
			// Each runner counts its own jobs, so each has its own clock.
			progress := experiments.ProgressPrinter(os.Stderr, time.Now)
			opts.OnEvent = func(ev experiments.Event) {
				sims++
				if testing.Verbose() {
					progress(ev)
				}
			}
			runners[key] = experiments.NewRunner(opts)
		}
		var stdout, stderr bytes.Buffer
		if status := sweep(context.Background(), c, runners[key], &stdout, &stderr); status != 0 || stderr.Len() > 0 {
			t.Fatalf("EXPERIMENTS.md:%d: nubasweep %s: exit %d\n%s", blocks[k].line, strings.Join(blocks[k].args, " "), status, stderr.String())
		}
		b := blocks[k]
		body := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		lines = append(lines[:b.start], append(body, lines[b.end:]...)...)
	}
	t.Logf("%d blocks, %d runners, %d simulations in %v", len(blocks), len(runners), sims, time.Since(start).Round(time.Second))
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// abbrs names a runner's benchmark list; none is the whole suite.
func abbrs(benches []nuba.Benchmark) string {
	if len(benches) == 0 {
		benches = nuba.Suite()
	}
	var names []string
	for _, b := range benches {
		names = append(names, b.Abbr)
	}
	return strings.Join(names, ",")
}

// TestProseNumbers runs the number check of TestExperimentsDoc on small
// documents: each holds one section, a Paper paragraph, a block and a line
// of prose, and names the numbers the check must refuse.
func TestProseNumbers(t *testing.T) {
	doc := func(prose string) []string {
		return strings.Split(strings.Join([]string{
			"# Doc",
			"",
			"Header prose is not checked: 1.5 MB, +9.9%.",
			"",
			"## Figure 1 — a figure",
			"",
			"Paper: the mean gain is +15.1% and 63.9% of misses stay local.",
			"",
			"```",
			"$ nubasweep -exp fig12 -scale 0.25 -bench BT",
			"Bench  Full-Rep  LLCmiss No/Full",
			"BT     -17.3%    0.61/0.87",
			"2MM    +97.2%    0.26/0.89",
			"mean NUBA local fraction: 59.8%",
			"```",
			"",
			prose,
			"",
			"## Known deltas from the paper",
			"",
			"Causes only.",
		}, "\n"), "\n")
	}
	for _, tc := range []struct {
		name, prose string
		refused     []string // the numbers the check names, in order
	}{
		{"block numbers pass", "BT loses 17.3% (-17.3%), miss rate 0.61 to 0.87, 2MM gains +97.2%.", nil},
		{"a Paper number passes where the sentence names the paper", "The mean sits above the paper's +15.1%.", nil},
		{"a Paper number fails where the sentence does not", "BT loses 17.3%. The mean is +15.1%.", []string{"+15.1%"}},
		{"the scale on the command line passes", "At `-scale 0.25` the GPU has 16 SMs.", nil},
		{"integer counts pass", "NUBA wins on 28 of 29 benchmarks and 3 points is an integer.", nil},
		{"a stale decimal fails", "The miss rate rises to 0.88.", []string{"0.88"}},
		{"a stale unsigned percentage fails", "The suite mean is 59.7% local.", []string{"59.7%"}},
		{"a stale integer percentage fails", "It leads by 41%.", []string{"41%"}},
		{"a sign mismatch fails", "BT gains +17.3%.", []string{"+17.3%"}},
		{"U+2212 is read as a minus", "BT (−17.3%) against 2MM (−97.2%).", []string{"-97.2%"}},
		{"a range dash is no sign", "Miss rates of 0.26-0.89 and 0.61–0.87.", nil},
		{"a block number inside a longer token does not count", "2MM gains 197.25% and 97.21%.", []string{"197.25%", "97.21%"}},
		{"a number inside a word is none", "FTD2D, fig14-size, v0.88 and x1.5 are names.", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, p := range proseNumberProblems(doc(tc.prose)) {
				line, rest, _ := strings.Cut(p, ": ")
				if line != "17" {
					t.Errorf("problem on line %s, want 17: %s", line, p)
				}
				num, _, _ := strings.Cut(rest, " ")
				got = append(got, num)
			}
			if strings.Join(got, " ") != strings.Join(tc.refused, " ") {
				t.Errorf("refused %q, want %q", got, tc.refused)
			}
		})
	}

	// Known deltas may quote any block or Paper paragraph of the file,
	// and nothing else.
	lines := doc("BT loses 17.3%.")
	lines = append(lines, "", "Above the paper's +15.1%, and 2MM at +97.2%, but not 12.5%.")
	got := proseNumberProblems(lines)
	if len(got) != 1 || !strings.HasPrefix(got[0], "23: 12.5% ") {
		t.Errorf("Known deltas: %q, want only line 23's 12.5%%", got)
	}
}

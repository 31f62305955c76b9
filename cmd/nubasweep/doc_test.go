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

// TestExperimentsDoc holds EXPERIMENTS.md to the simulator: every fenced
// block of nubasweep output starts with the `$ nubasweep ARGS` line that
// printed it. Without REGEN it simulates nothing: it parses each command
// as nubasweep does and fails on one nubasweep would refuse, on a block of
// output with no command line and on an experiment no block runs. With
// REGEN=1 (`make experiments`) it runs every command through sweep, the
// function nubasweep runs after parsing, and rewrites each body with the
// command's stdout. Commands with the same scale and benchmarks share one
// runner, so a simulation several blocks read runs once.
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

	runners := map[string]*experiments.Runner{}
	sims := 0
	progress := experiments.ProgressPrinter(os.Stderr)
	for k := len(blocks) - 1; k >= 0; k-- { // back to front, so earlier line numbers hold
		c := cmds[k]
		key := fmt.Sprint(c.opts.Scale, abbrs(c.opts.Benchmarks))
		if runners[key] == nil {
			opts := c.opts
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
	t.Logf("%d blocks, %d runners, %d simulations", len(blocks), len(runners), sims)
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

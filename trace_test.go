package nuba

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/nuba-gpu/nuba/internal/trace"
)

// tracedBP runs BP once, traced, at reduced scale; cached across the
// tests that inspect the emitted streams.
var tracedBP = sync.OnceValues(func() (struct{ series, chrome []byte }, error) {
	var out struct{ series, chrome []byte }
	b, err := BenchmarkByAbbr("BP")
	if err != nil {
		return out, err
	}
	var series, chrome bytes.Buffer
	topts := &TraceOptions{Series: &series, Chrome: &chrome}
	if _, err := Run(context.Background(), NUBAConfig().Scale(0.125), b, WithTrace(topts)); err != nil {
		return out, err
	}
	out.series, out.chrome = series.Bytes(), chrome.Bytes()
	return out, nil
})

// TestRunDefaultsTraceEpoch: a traced Run with no EpochCycles samples
// once per MDR epoch of its configuration.
func TestRunDefaultsTraceEpoch(t *testing.T) {
	b, err := BenchmarkByAbbr("LEU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NUBAConfig().Scale(0.125)
	cfg.MDREpoch = 5000
	var series bytes.Buffer
	if _, err := Run(context.Background(), cfg, b, WithTrace(&TraceOptions{Series: &series})); err != nil {
		t.Fatal(err)
	}
	meta, _, _ := bytes.Cut(series.Bytes(), []byte("\n"))
	var m struct {
		Type        string `json:"type"`
		EpochCycles int64  `json:"epoch_cycles"`
	}
	if err := json.Unmarshal(meta, &m); err != nil || m.Type != "meta" || m.EpochCycles != 5000 {
		t.Fatalf("meta line %s (err %v): want epoch_cycles 5000", meta, err)
	}
}

// The acceptance bar of the tracing subsystem: for one (Config,
// Benchmark) the trace byte streams are identical whether the run has
// the process to itself or shares it with another simulation, and across
// repeated runs, and tracing never changes the simulated result.
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	var benches []Benchmark
	for _, abbr := range []string{"BP", "AN"} {
		b, err := BenchmarkByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	cfg := NUBAConfig().Scale(0.125)

	// capture traces every benchmark with its own sinks: one Run after
	// another, or all at once on goroutines the test starts itself.
	type sinks struct{ series, chrome bytes.Buffer }
	capture := func(concurrent bool) []*sinks {
		t.Helper()
		out := make([]*sinks, len(benches))
		errs := make([]error, len(benches))
		var wg sync.WaitGroup
		for i, b := range benches {
			out[i] = &sinks{}
			run := func() {
				_, errs[i] = Run(context.Background(), cfg, b,
					WithTrace(&TraceOptions{Series: &out[i].series, Chrome: &out[i].chrome}))
			}
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", benches[i].Abbr, err)
			}
		}
		return out
	}

	serial, parallel, again := capture(false), capture(true), capture(true)
	for i, b := range benches {
		if !bytes.Equal(serial[i].series.Bytes(), parallel[i].series.Bytes()) {
			t.Errorf("%s: NDJSON trace differs between a serial and a concurrent run", b.Abbr)
		}
		if !bytes.Equal(serial[i].chrome.Bytes(), parallel[i].chrome.Bytes()) {
			t.Errorf("%s: Chrome trace differs between a serial and a concurrent run", b.Abbr)
		}
		if !bytes.Equal(parallel[i].series.Bytes(), again[i].series.Bytes()) {
			t.Errorf("%s: NDJSON trace differs between identical runs", b.Abbr)
		}
		if serial[i].series.Len() == 0 {
			t.Errorf("%s: empty NDJSON trace", b.Abbr)
		}
	}

	// Passivity: a traced run simulates the exact same cycles.
	b := benches[0] // BP
	plain, err := Run(context.Background(), cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	res, err := Run(context.Background(), cfg, b, WithTrace(&TraceOptions{Series: &sink}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != plain.Stats.Cycles {
		t.Errorf("traced run took %d cycles, untraced %d", res.Stats.Cycles, plain.Stats.Cycles)
	}
}

// Every field the tracer emits — in either sink, at any nesting — must
// be documented (backticked) in docs/OBSERVABILITY.md. The harvest runs
// over a real traced run plus a synthetic emission of the record types
// (placement events, held MDR decisions) a short BP run does not hit.
func TestTraceSchemaDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}

	keys := make(map[string]bool)
	var collect func(v any)
	collect = func(v any) {
		if m, ok := v.(map[string]any); ok {
			for k, sub := range m {
				keys[k] = true
				collect(sub)
			}
		}
	}

	traced, err := tracedBP()
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(traced.series)), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("NDJSON line %d invalid: %v\n%s", i+1, err, line)
		}
		collect(v)
	}
	var events []map[string]any
	if err := json.Unmarshal(traced.chrome, &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	for _, ev := range events {
		collect(ev)
	}

	// Record types the BP run does not emit, driven synthetically so
	// their fields are harvested too.
	var series, chrome bytes.Buffer
	tr := trace.New(trace.Options{EpochCycles: 100, Series: &series, Chrome: &chrome}, 1)
	tr.Begin(trace.Meta{Bench: "synthetic", Config: "synthetic", Partitions: 1})
	tr.MDRDecision(trace.MDRDecision{Cycle: 100, Epoch: 1, Held: true})
	tr.PageMigration(1, 1, 0, 1)
	tr.PageReplication(2, 1, 1)
	tr.ReplicaCollapse(3, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(series.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatal(err)
		}
		collect(v)
	}
	events = nil
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		collect(ev)
	}

	if len(keys) < 30 {
		t.Fatalf("harvested only %d keys — tracing broken?", len(keys))
	}
	for k := range keys {
		if !bytes.Contains(doc, []byte("`"+k+"`")) {
			t.Errorf("emitted field %q is not documented in docs/OBSERVABILITY.md", k)
		}
	}
}

// The Chrome sink of a real run must be structurally valid trace_event
// JSON: known phases, required fields per phase, named lanes, and the
// counter tracks the schema promises.
func TestTraceChromeExport(t *testing.T) {
	traced, err := tracedBP()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traced.chrome, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace is empty")
	}
	need := map[string][]string{
		"M": {"name", "ph", "pid", "args"},
		"X": {"name", "ph", "pid", "tid", "ts", "dur", "cat"},
		"i": {"name", "ph", "pid", "tid", "ts", "s"},
		"C": {"name", "ph", "pid", "ts", "args"},
	}
	seen := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		fields, ok := need[ph]
		if !ok {
			t.Fatalf("unknown phase %q: %v", ph, ev)
		}
		seen[ph] = true
		for _, f := range fields {
			if _, ok := ev[f]; !ok {
				t.Fatalf("%q event missing %q: %v", ph, f, ev)
			}
		}
		if ts, ok := ev["ts"].(float64); ok && ts < 0 {
			t.Fatalf("negative timestamp: %v", ev)
		}
	}
	for _, ph := range []string{"M", "X", "C"} {
		if !seen[ph] {
			t.Errorf("no %q events in a traced BP run", ph)
		}
	}
	for _, name := range []string{"kernels", "MDR epochs", "page placement", "npb", "replies_per_cycle"} {
		found := false
		for _, ev := range events {
			if n, _ := ev["name"].(string); n == name ||
				(ev["ph"] == "M" && fmt.Sprint(ev["args"]) == fmt.Sprintf("map[name:%s]", name)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("chrome trace has no %q track", name)
		}
	}
}

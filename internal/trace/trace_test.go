package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/nuba-gpu/nuba/internal/sim"
)

func newTestTracer() (*Tracer, *bytes.Buffer, *bytes.Buffer) {
	var series, chrome bytes.Buffer
	t := New(Options{EpochCycles: 1000, Series: &series, Chrome: &chrome}, 1.4)
	return t, &series, &chrome
}

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Fatal("zero Options must be disabled")
	}
	if !(Options{Series: &bytes.Buffer{}}).Enabled() || !(Options{Chrome: &bytes.Buffer{}}).Enabled() {
		t.Fatal("either sink alone must enable tracing")
	}
}

// The NDJSON byte stream is a documented contract (docs/OBSERVABILITY.md):
// field order and float precision are pinned.
func TestSeriesExactBytes(t *testing.T) {
	tr, series, _ := newTestTracer()
	tr.Begin(Meta{Bench: "BP", Config: "NUBA", Partitions: 2})
	tr.EpochSample(EpochSample{
		Epoch: 1, Cycle: 1000, Cycles: 1000,
		NPB: 0.5, PartBalance: []float64{0.5, 1},
		LMROcc: 1.25, NoCOcc: 3, NoCUtil: 0.25, NoCBytes: 4096,
		LLCHitRate: 0.75, LLCMissRate: 0.25, RepHitRate: 0.1,
		RepliesPerCycle: 2, LocalFrac: 0.9,
		DRAMGroupBusy: []float64{0.5, 0.25},
		HaveMDR:       true, MDRReplicating: true,
	})
	tr.MDRDecision(MDRDecision{
		Cycle: 1000, Epoch: 1, Replicating: true, Next: false,
		PredNoRepBPC: 10, PredFullRepBPC: 9.5, ObservedBPC: 8, ApplyAt: 1116,
	})
	tr.MDRDecision(MDRDecision{Cycle: 2000, Epoch: 2, Replicating: false, Next: false, Held: true, ObservedBPC: 1})
	tr.KernelSpan("gemm", 1, 0, 500)
	tr.PageMigration(700, 42, 0, 1)
	tr.PageReplication(800, 43, 1)
	tr.ReplicaCollapse(900, 43)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	want := strings.Join([]string{
		`{"type":"meta","schema":"nuba-trace/1","bench":"BP","config":"NUBA","partitions":2,"epoch_cycles":1000,"core_ghz":1.400000}`,
		`{"type":"epoch","epoch":1,"cycle":1000,"cycles":1000,"npb":0.500000,"part_balance":[0.500000,1.000000],"lmr_occ":1.250000,"rmr_occ":0.000000,"noc_occ":3,"noc_util":0.250000,"noc_bytes":4096,"llc_hit_rate":0.750000,"llc_miss_rate":0.250000,"rep_hit_rate":0.100000,"replies_per_cycle":2.000000,"local_frac":0.900000,"dram_group_busy":[0.500000,0.250000],"mdr_replicating":true}`,
		`{"type":"mdr","cycle":1000,"epoch":1,"decision":"no-rep","held":false,"pred_norep_bpc":10.000000,"pred_fullrep_bpc":9.500000,"apply_at":1116,"observed_bpc":8.000000}`,
		`{"type":"mdr","cycle":2000,"epoch":2,"decision":"no-rep","held":true,"observed_bpc":1.000000}`,
		`{"type":"kernel","name":"gemm","seq":1,"cycle":0,"end_cycle":500}`,
		`{"type":"migration","cycle":700,"vpn":42,"from":0,"to":1}`,
		`{"type":"page_replication","cycle":800,"vpn":43,"part":1}`,
		`{"type":"collapse","cycle":900,"vpn":43}`,
	}, "\n") + "\n"
	if got := series.String(); got != want {
		t.Errorf("series stream mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestChromeValidTraceEvents(t *testing.T) {
	tr, _, chrome := newTestTracer()
	tr.Begin(Meta{Bench: "BP", Config: "NUBA", Partitions: 2})
	tr.KernelSpan("gemm", 1, 0, 1400) // 1 µs at 1.4 GHz
	tr.EpochSample(EpochSample{Epoch: 1, Cycle: 1000, Cycles: 1000, NPB: 1})
	tr.MDRDecision(MDRDecision{Cycle: 1000, Epoch: 1, Replicating: true, Next: true,
		PredNoRepBPC: 1, PredFullRepBPC: 2, ObservedBPC: 1, ApplyAt: 1116})
	tr.PageMigration(500, 7, 0, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome sink is not a JSON array: %v\n%s", err, chrome.String())
	}
	phases := map[string]int{}
	for _, ev := range events {
		for _, k := range []string{"name", "ph", "pid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		phases[ev["ph"].(string)]++
	}
	// 4 metadata, 1 kernel span + 1 MDR span, 2 counters, 1 instant.
	if phases["M"] != 4 || phases["X"] != 2 || phases["C"] != 2 || phases["i"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
	// The kernel span: 1400 cycles at 1.4 GHz = 1.000 µs.
	for _, ev := range events {
		if ev["name"] == "kernel gemm" {
			if ev["dur"] != 1.0 {
				t.Fatalf("kernel dur = %v, want 1.0 µs", ev["dur"])
			}
		}
	}
}

// New has no defaults: nuba.Run fills the interval in from the
// configuration, and a non-positive one or clock is a caller's bug.
func TestNewRefusesNonPositive(t *testing.T) {
	for _, c := range []struct {
		epoch int64
		ghz   float64
	}{{0, 1}, {-1, 1}, {1000, 0}, {1000, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(EpochCycles %d, %g GHz) did not panic", c.epoch, c.ghz)
				}
			}()
			New(Options{EpochCycles: sim.Cycle(c.epoch)}, c.ghz)
		}()
	}
}

func TestChromeEmptyIsValidArray(t *testing.T) {
	var chrome bytes.Buffer
	tr := New(Options{EpochCycles: 1000, Chrome: &chrome}, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty chrome sink = %q (err %v), want []", chrome.String(), err)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestWriteErrorSurfacedByClose(t *testing.T) {
	sinkErr := errors.New("disk full")
	tr := New(Options{EpochCycles: 1000, Series: failWriter{sinkErr}}, 1)
	tr.Begin(Meta{})
	tr.KernelSpan("k", 1, 0, 1) // must not panic after the error
	if err := tr.Close(); !errors.Is(err, sinkErr) {
		t.Fatalf("Close() = %v, want %v", err, sinkErr)
	}
}

func TestNonFiniteFloatsDegradeToZero(t *testing.T) {
	tr, series, _ := newTestTracer()
	tr.EpochSample(EpochSample{Epoch: 1, Cycle: 1, Cycles: 1, NPB: math.NaN(), LLCHitRate: math.Inf(1)})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(series.String()), &v); err != nil {
		t.Fatalf("non-finite input broke the JSON: %v\n%s", err, series.String())
	}
	if v["npb"] != 0.0 || v["llc_hit_rate"] != 0.0 {
		t.Fatalf("non-finite values = %v / %v, want 0", v["npb"], v["llc_hit_rate"])
	}
}

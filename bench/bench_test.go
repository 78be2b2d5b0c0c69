package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSizes shrinks every workload together: a few dozen transactions, two
// batches, a few dozen reads and three quick-scale experiments, so the harness
// is compiled, run end to end and checked by its own gates without timing
// anything.
var smokeSizes = sizes{
	setups:     1,
	txSubjects: 16, txPreload: 2, txWarmup: 1,
	ingestSubjects: 64, ingestBatch: 32,
	readSubjects: 16, readPreload: 4,
	simNodes: 60, simTx: 12, simExperiments: 3, simSetupNodes: 60,
	simWorkers: 1, // several experiments race on shared accumulators when replicas run in parallel (see simUnstable)
	probeDiv:   50,
}

// TestSmoke runs every workload untraced and traced at smoke size and checks
// that each named metric comes out with its unit, that the result line has the
// driver's shape, and that every correctness gate passes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(name, smokeSizes, 7, 0.25, traced, dir, 0, stamp{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, g := range rec.Gates {
				if !g.OK && !g.Warn { // lateness under -race is not a defect
					t.Errorf("%s traced=%v: gate %q failed: %s", name, traced, g.Name, g.Detail)
				}
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := report(&buf, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%v: result line: %v", name, traced, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: result line has %d metrics, want %d: %s", name, traced, len(line.Metrics), len(defs), lines[len(lines)-1])
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit %q", name, traced, d.Name, d.Unit)
				}
				if !traced && (m.Value == nil || *m.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s is not positive", name, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

// TestCorruptedGateFails shifts each gate's expectation by one and demands
// the run is reported incorrect.
func TestCorruptedGateFails(t *testing.T) {
	for _, name := range workloadNames {
		rec, err := runOne(name, smokeSizes, 7, 0.1, false, t.TempDir(), 1, stamp{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Correct {
			t.Errorf("%s: a corrupted check still reported correct", name)
		}
	}
}

// TestEveryApplicableLayerMetricIsMeasured guards against a per-layer name
// that no workload ever sets.
func TestEveryApplicableLayerMetricIsMeasured(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workloadNames {
		sz := smokeSizes
		if name == "sim-paper" {
			sz.simExperiments = len(simExperiments)
		}
		rec, err := runOne(name, sz, 7, 0.1, true, t.TempDir(), 0, stamp{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for m, v := range rec.Metrics {
			if v.N > 0 {
				seen[m] = true
			}
		}
	}
	for _, d := range perLayer {
		if !seen[d.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables here in
// step: same names, units, directions and bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark prints %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the benchmark has %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark has %+v", i, got, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes([]span{
		{ID: 1, Name: "tx", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 60e6},
		{ID: 3, Parent: 1, Name: "b", Start: 60e6, End: 90e6},
	})
	want := map[string]float64{"tx": 10, "a": 60, "b": 30}
	for _, s := range got {
		if s.SelfMs != want[s.Name] {
			t.Errorf("self time of %s = %v ms, want %v", s.Name, s.SelfMs, want[s.Name])
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestTablesAgree(t *testing.T) {
	a := "x,hirep,voting\n40,0.0411,0.1834\n"
	for b, want := range map[string]bool{
		a:                                     true,
		"x,hirep,voting\n40,0.04109,0.1834\n": true,  // a rounded last digit
		"x,hirep,voting\n40,0.0431,0.1834\n":  false, // a different result
		"x,hirep,votes\n40,0.0411,0.1834\n":   false,
		"x,hirep,voting\n40,0.0411\n":         false,
	} {
		if got := tablesAgree(a, b); got != want {
			t.Errorf("tablesAgree(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

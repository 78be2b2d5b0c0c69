// Command bench is the repository's one benchmark: four seeded workloads over
// the public functions of the live node and the simulator, measured end to end
// (untraced) and layer by layer (traced). See README.md beside this file and
// BENCHMARK.json at the root of the repository.
//
//	bash bench/run.sh                                    # every workload, untraced
//	bash bench/run.sh --workload tx-loop --trace 1       # one workload, per-layer
//	bash bench/run.sh --compare bench/out/a bench/out/b  # two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadNames is the order `--workload all` runs them in.
var workloadNames = []string{"tx-loop", "ingest-durable", "verified-read", "sim-paper"}

// sizes is how much each workload sets up and how hard the probes run. The
// benchmark measures at fullSizes; the smoke test shrinks everything together.
type sizes struct {
	setups int // set-ups per run: setup_s is their median, the last one is measured on

	txSubjects, txPreload, txWarmup int // tx-loop: subjects, truthful reports per subject per agent, warm-up tx per peer
	ingestSubjects, ingestBatch     int // ingest-durable: subjects, reports per ReportBatch
	readSubjects, readPreload       int // verified-read: subjects, reports per subject (below readEvidenceCap)

	simNodes, simTx int // sim-paper: population and transactions per replica of one pass
	simExperiments  int // how many entries of `hirepsim -exp all` a pass runs, from the front
	simSetupNodes   int // population of the set-up and probe deployment
	simWorkers      int // replica worlds simulated at once

	probeDiv int // divides every layer probe's call count
}

var fullSizes = sizes{
	setups:     3,
	txSubjects: 256, txPreload: 8, txWarmup: 16,
	ingestSubjects: 4096, ingestBatch: 256,
	readSubjects: 512, readPreload: 16,
	simNodes: 250, simTx: 120, simExperiments: len(simExperiments), simSetupNodes: 1000,
	simWorkers: runtime.NumCPU(),
	probeDiv:   1,
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the workload's world from its seed.
	setup() error
	// run measures for about seconds and writes its metrics to out: the
	// end-to-end ones when tr is nil, the per-layer ones otherwise.
	run(seconds float64, tr *tracer, out sink) (attempted, failed int64)
	// probe runs the layer-probe pass of a traced run.
	probe(out sink, tr *tracer) error
	// check runs the workload's correctness gates; it may shut the world down
	// to inspect what it left on disk.
	check(out sink) []gate
	close()
}

// gate is one check of a run. A failed gate makes the run incorrect and the
// command exit non-zero, unless Warn is set: a failed warning only marks the
// run invalid, which keeps it out of comparisons.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Warn   bool   `json:"warn,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// newWorkload builds the named workload. skew corrupts its correctness gate's
// expectation on purpose.
func newWorkload(name string, sz sizes, seed int64, tmp string, skew int) (workload, error) {
	switch name {
	case "tx-loop":
		return &txLoop{sz: sz, seed: seed, tmp: tmp, expectSkew: skew}, nil
	case "ingest-durable":
		return &ingest{sz: sz, seed: seed, tmp: tmp, expectSkew: skew}, nil
	case "verified-read":
		return &reads{sz: sz, seed: seed, tmp: tmp, expectSkew: skew}, nil
	case "sim-paper":
		return &simPaper{sz: sz, seed: seed, expectSkew: skew}, nil
	}
	return nil, fmt.Errorf("unknown workload %q; want %s or all", name, strings.Join(workloadNames, "|"))
}

// runRecord is what one run leaves under bench/out/.
type runRecord struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Gates     []gate             `json:"gates"`
	PhaseS    map[string]float64 `json:"phase_seconds"`
	Budget    string             `json:"budget,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once and returns its record.
func runOne(name string, sz sizes, seed int64, seconds float64, traced bool, outDir string, skew int, st stamp) (runRecord, error) {
	rec := runRecord{Stamp: st, Workload: name, Seed: seed, Seconds: seconds, Trace: traced, PhaseS: map[string]float64{}}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return rec, err
	}
	tmp, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)
	w, err := newWorkload(name, sz, seed, tmp, skew)
	if err != nil {
		return rec, err
	}
	defer w.close()

	out := sink{}
	var setupS []float64
	for i := 0; i < sz.setups; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return rec, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rec.PhaseS["setup"] = setupS[len(setupS)-1]
	out.set("setup_s", median(setupS), len(setupS))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	rec.Attempted, rec.Failed = w.run(seconds, tr, out)
	rec.PhaseS["run"] = time.Since(t0).Seconds()
	out.set("rss_mb", settledRSSMB(), 1) // while the workload's world is still up
	if traced {
		t0 = time.Now()
		if err := w.probe(out, tr); err != nil {
			return rec, fmt.Errorf("%s: layer probes: %w", name, err)
		}
		rec.PhaseS["probe"] = time.Since(t0).Seconds()
	}
	t0 = time.Now()
	rec.Gates = w.check(out)
	rec.PhaseS["check"] = time.Since(t0).Seconds()
	out.set("load.peak_rss_mb", peakRSSMB(), 1)
	if w, ok := w.(*txLoop); ok {
		rec.Budget = w.budget
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if unknown := out.undeclared(); len(unknown) > 0 {
		rec.Gates = append(rec.Gates, gate{Name: "every metric is declared", Detail: strings.Join(unknown, ", ")})
	}
	rec.Correct, rec.Valid = rec.Failed == 0 && rec.Attempted > 0, true
	for _, g := range rec.Gates {
		if g.Warn {
			rec.Valid = rec.Valid && g.OK
		} else {
			rec.Correct = rec.Correct && g.OK
		}
	}
	// A metric the workload does not measure reads 0 with n=0.
	rec.Metrics = map[string]value{}
	for _, d := range defs {
		v := out[d.Name]
		v.Unit = d.Unit
		rec.Metrics[d.Name] = v
	}
	if traced {
		if _, err := tr.write(outDir, name, seed, st); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// report prints a run for people, then the result line for the driver.
func report(w io.Writer, rec runRecord) error {
	defs, kind := endToEnd, "end to end, untraced"
	if rec.Trace {
		defs, kind = perLayer, "per layer, traced"
	}
	vals := make([]value, len(defs))
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]lineMetric{}}
	for i, d := range defs {
		vals[i] = rec.Metrics[d.Name]
		line.Metrics[d.Name] = lineMetric{Value: vals[i].Value, Unit: d.Unit}
	}
	printTable(w, fmt.Sprintf("%s  seed %d  %gs  (%s)", rec.Workload, rec.Seed, rec.Seconds, kind), defs, vals)
	fmt.Fprintf(w, "  attempted %d  failed %d  fail_ratio %s\n", rec.Attempted, rec.Failed, trimFloat(float64(rec.Failed)/float64(max(rec.Attempted, 1))))
	for _, g := range rec.Gates {
		verdict := "ok  "
		if !g.OK {
			verdict = "FAIL"
			if g.Warn {
				verdict = "WARN (run marked invalid)"
			}
		}
		fmt.Fprintf(w, "  gate %s %s  %s\n", verdict, g.Name, g.Detail)
	}
	if rec.Budget != "" {
		ex, un := rec.Metrics["node.tx_explained_ms"].Value, rec.Metrics["node.tx_unexplained_ms"].Value
		fmt.Fprintf(w, "  budget: node.tx_explained_ms %s + node.tx_unexplained_ms %s = tx p50 %s ms\n    %s\n",
			trimFloat(ex), trimFloat(un), trimFloat(ex+un), rec.Budget)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// save writes the record under dir/label/.
func save(dir, label string, rec runRecord) error {
	dir = filepath.Join(dir, label)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	name := fmt.Sprintf("%s-t%d-s%d-%d.json", rec.Workload, t, rec.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func main() {
	var (
		workloadF = flag.String("workload", "all", strings.Join(workloadNames, "|")+"|all")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: subjects, skew, op order and mix")
		seconds   = flag.Float64("seconds", 25, "how long each run measures; every phase is a fixed share of it")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run plus the layer probes")
		outDir    = flag.String("out", "bench/out", "directory for run records, traces and scratch stores")
		label     = flag.String("label", "runs", "sub-directory of -out this run's record is filed under")
		compareF  = flag.Bool("compare", false, "compare two sets of run records: -compare <dir-or-file> <dir-or-file>")
		corrupt   = flag.Bool("corrupt", false, "shift each correctness gate's expectation by one, to show a failed check fails the command")
	)
	flag.Parse()
	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare <dir-or-file> <dir-or-file>")
			os.Exit(2)
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	names := []string{*workloadF}
	if *workloadF == "all" {
		names = workloadNames
	}
	// One process, GOMAXPROCS = the host's cores; closed loops never run more
	// client goroutines than that.
	runtime.GOMAXPROCS(runtime.NumCPU())
	st := newStamp()
	skew := 0
	if *corrupt {
		skew = 1
	}
	ok := true
	for _, name := range names {
		rec, err := runOne(name, fullSizes, *seed, *seconds, *trace != 0, *outDir, skew, st)
		if err != nil {
			// No result line: the run measured nothing the driver may use.
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := save(*outDir, *label, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := report(os.Stdout, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

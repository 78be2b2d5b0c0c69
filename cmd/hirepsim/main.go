// Command hirepsim regenerates the paper's evaluation: every figure (5–8),
// Table 1, the §4.1 overhead analysis, and the §4.2 attack scenarios.
//
// Usage:
//
//	hirepsim -exp all                 # everything, paper-scale parameters
//	hirepsim -exp fig5 -quick         # one figure at reduced scale
//	hirepsim -exp fig7 -csv           # CSV output for plotting
//	hirepsim -exp fig6 -n 2000 -tx 800 -replicas 5 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hirep/internal/metrics"
	"hirep/internal/sim"
	"hirep/internal/stats"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig5|fig6|fig7|fig8|table1|overhead|attacks|churn|models|latency|bytes|tokens|loss|all")
		quick    = flag.Bool("quick", false, "reduced-scale parameters (fast)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot     = flag.Bool("plot", false, "also render figures as ASCII plots")
		n        = flag.Int("n", 0, "override network size")
		tx       = flag.Int("tx", 0, "override transactions per replica")
		replicas = flag.Int("replicas", 0, "override replica count")
		seed     = flag.Int64("seed", 0, "override root seed")
		workers  = flag.Int("workers", 0, "override worker parallelism")
		metricsF = flag.Bool("metrics", false, "collect and print simulator telemetry (per-kind latency/queueing histograms, event-loop throughput)")
		outdir   = flag.String("outdir", "", "also write each experiment's table as <outdir>/<name>.csv")
	)
	flag.Parse()

	p := sim.PaperParams()
	if *quick {
		p = sim.QuickParams()
	}
	if *n > 0 {
		p.NetworkSize = *n
	}
	if *tx > 0 {
		p.Transactions = *tx
	}
	if *replicas > 0 {
		p.Replicas = *replicas
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *workers > 0 {
		p.Workers = *workers
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var mtr *metrics.Sim
	if *metricsF {
		mtr = metrics.NewSim()
		p.Metrics = mtr
	}

	begin := time.Now()
	for _, e := range selected {
		start := time.Now()
		res, err := e.run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		emit(res, *csv, *plot)
		if *outdir != "" {
			if err := writeCSV(*outdir, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s completed in %s]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if mtr != nil {
		mtr.Summary().Render(os.Stdout)
		fmt.Println()
		mtr.Overview().Render(os.Stdout)
		fmt.Println()
	}
	// The end-to-end figure for the selection: wall clock and, when the
	// event loops were observed, simulated events per wall second.
	wall := time.Since(begin).Seconds()
	if mtr != nil {
		fmt.Printf("%s: %.2f s, %d events, %.0f events/s\n", *exp, wall, mtr.Events(), float64(mtr.Events())/wall)
	} else {
		fmt.Printf("%s: %.2f s (-metrics adds events and events/s)\n", *exp, wall)
	}
}

type experiment struct {
	name string
	run  func(sim.Params) (sim.ExpResult, error)
}

// experiments is every experiment, in the order -exp all runs them.
var experiments = []experiment{
	{"table1", func(p sim.Params) (sim.ExpResult, error) {
		return sim.ExpResult{Name: "table1", Table: sim.Table1(p)}, nil
	}},
	{"fig5", sim.Fig5},
	{"fig6", sim.Fig6},
	{"fig7", sim.Fig7},
	{"fig8", sim.Fig8},
	{"overhead", sim.Overhead},
	{"attacks", sim.Attacks},
	{"churn", sim.Churn},
	{"models", sim.Models},
	{"latency", sim.Latency},
	{"bytes", sim.BytesView},
	{"tokens", sim.Tokens},
	{"loss", sim.Loss},
}

// selectExperiments resolves -exp, a comma-separated list of experiment
// names or "all", to the experiments it names in run order. Every name must
// be known, so a typo fails before anything runs.
func selectExperiments(spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		known := name == "all"
		for _, e := range experiments {
			known = known || e.name == name
		}
		if !known {
			names := make([]string, len(experiments))
			for i, e := range experiments {
				names[i] = e.name
			}
			return nil, fmt.Errorf("unknown experiment %q; want a comma-separated list of %s, or all", name, strings.Join(names, "|"))
		}
		want[name] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// writeCSV stores one experiment's table under dir.
func writeCSV(dir string, res sim.ExpResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, res.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	res.Table.RenderCSV(f)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

func emit(res sim.ExpResult, csv, plot bool) {
	var t *stats.Table = res.Table
	if csv {
		t.RenderCSV(os.Stdout)
	} else {
		t.Render(os.Stdout)
	}
	if plot && len(res.Series) > 0 {
		fmt.Println()
		p := stats.NewPlot(res.Name, "x", "y", res.Series...)
		p.Render(os.Stdout)
	}
	for _, note := range res.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}

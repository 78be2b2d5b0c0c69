package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hirep"
	"hirep/internal/metrics"
	"hirep/internal/sim"
	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// sim-paper: the paper-faithful half of the repo — the 13 entries of
// `hirepsim -exp all`, in its order, called through internal/sim with the
// simulator observer off.
//
// Scale. At sim.PaperParams() one pass over the 13 takes ≈30 s on the 2-core
// reference host, which is one sample per run. A run instead makes as many
// passes as fit in -seconds at a reduced scale (Table 1's protocol parameters
// and latency model unchanged; population, transactions and replicas reduced
// together), each pass on its own seed derived from -seed, so that one unlucky
// topology does not decide the figure, and reports medians over the passes.

// params is PaperParams at the benchmark's scale, for one pass.
func (w *simPaper) params(seed int64) sim.Params {
	p := sim.PaperParams()
	p.NetworkSize = w.sz.simNodes
	p.Transactions = w.sz.simTx
	p.ActiveRequestors = 10
	p.ProviderPool = 40
	p.SampleEvery = max(w.sz.simTx/6, 1)
	p.Replicas = runtime.GOMAXPROCS(0)
	p.Workers = w.sz.simWorkers
	p.Seed = seed
	return p
}

// simRunners is `hirepsim -exp all`, in its order.
var simRunners = []func(sim.Params) (sim.ExpResult, error){
	func(p sim.Params) (sim.ExpResult, error) {
		return sim.ExpResult{Name: "table1", Table: sim.Table1(p)}, nil
	},
	sim.Fig5, sim.Fig6, sim.Fig7, sim.Fig8, sim.Overhead, sim.Attacks, sim.Churn,
	sim.Models, sim.Latency, sim.BytesView, sim.Tokens, sim.Loss,
}

// simObserver is metrics.Sim plus the one figure it aggregates but does not
// expose: the deepest event queue any replica world reached.
type simObserver struct {
	*metrics.Sim
	peak atomic.Int64
}

func (o *simObserver) RunDone(r simnet.RunStats) {
	o.Sim.RunDone(r)
	for {
		cur := o.peak.Load()
		if int64(r.PeakQueue) <= cur || o.peak.CompareAndSwap(cur, int64(r.PeakQueue)) {
			return
		}
	}
}

// The simulator's tables are not exactly a function of the seed at the commit
// that introduced this benchmark, so the repeatability gate compares two runs
// of one seed cell by cell, numbers within simTolerance. Several experiments
// add into shared stats.Accum values from parallel replica goroutines without
// synchronisation, so with Workers > 1 an update is lost or reordered now and
// then (the race detector reports it): models, tokens and bytes differed in
// the fourth significant digit about one run in fifteen, and fig7 flipped a
// rounded last digit. A table renders four significant digits, so such a
// difference stays below simTolerance while a change of behaviour does not.
const simTolerance = 0.01

// simUnstable names the experiments left out of the gate: their cells differ
// by up to a tenth between two runs of one seed, even with one worker. They
// are timed like the rest.
var simUnstable = map[string]bool{"churn": true, "loss": true}

// tablesAgree compares two CSV renderings of one table: the same cells, text
// equal and numbers within simTolerance of each other.
func tablesAgree(a, b string) bool {
	cell := func(r rune) bool { return r == ',' || r == '\n' }
	ca, cb := strings.FieldsFunc(a, cell), strings.FieldsFunc(b, cell)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] == cb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(ca[i], 64)
		y, errY := strconv.ParseFloat(cb[i], 64)
		if errX != nil || errY != nil || math.Abs(x-y) > simTolerance*max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

type simPaper struct {
	sz         sizes
	seed       int64
	setups     int64
	tables     []string // pass 0: each experiment's table, as CSV
	tablesSeed int64
	expectSkew int
}

// passSeed derives pass k's seed from the run's.
func (w *simPaper) passSeed(k int) int64 {
	return xrand.New(w.seed).SplitN("pass", k).Seed()
}

// setup builds one paper-size deployment — power-law topology, ground truth
// and a bootstrapped hiREP system — which is the fixed cost in front of any
// simulated transaction. (The experiments build their own worlds inside the
// measured calls.)
func (w *simPaper) setup() error {
	w.setups++
	_, err := hirep.NewTestbed(w.sz.simSetupNodes, 0.5, hirep.DefaultConfig(), w.seed+w.setups)
	return err
}

// pass runs the 13 experiments once and returns each one's wall and process
// CPU ms and its table rendered as CSV.
func (w *simPaper) pass(p sim.Params, tr *tracer) (ms, cpu []float64, tables []string, err error) {
	root := tr.id()
	start := time.Now()
	for i, run := range simRunners[:w.sz.simExperiments] {
		t0, c0 := time.Now(), cpuTime()
		res, err := run(p)
		t1, c1 := time.Now(), cpuTime()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", simExperiments[i], err)
		}
		tr.add(0, root, "sim."+simExperiments[i], t0, t1)
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		cpu = append(cpu, c1-c0)
		var buf strings.Builder
		res.Table.RenderCSV(&buf)
		tables = append(tables, buf.String())
	}
	tr.add(root, 0, "sim.pass", start, time.Now())
	return ms, cpu, tables, nil
}

func (w *simPaper) run(seconds float64, tr *tracer, out sink) (attempted, failed int64) {
	var mtr *simObserver
	if tr != nil {
		mtr = &simObserver{Sim: metrics.NewSim()}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var (
		all    []float64 // every experiment call, wall ms
		wall   = make([][]float64, w.sz.simExperiments)
		cpu    = make([][]float64, w.sz.simExperiments)
		passes int
	)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		p := w.params(w.passSeed(k))
		if mtr != nil {
			p.Metrics = mtr
		}
		ms, cpuMs, tables, err := w.pass(p, tr)
		attempted += int64(w.sz.simExperiments)
		if err != nil {
			failed += int64(w.sz.simExperiments)
			continue
		}
		if k == 0 {
			w.tables, w.tablesSeed = tables, p.Seed
		}
		passes++
		for i := range ms {
			wall[i] = append(wall[i], ms[i])
			cpu[i] = append(cpu[i], cpuMs[i])
		}
		all = append(all, ms...)
	}
	if tr == nil {
		// One pass is a fixed input size. Its cost is the sum over the
		// experiments of each one's median over the passes, so one slow pass
		// on a shared host does not move it.
		var passMs, passCPU float64
		for i := range wall {
			passMs += median(wall[i])
			passCPU += median(cpu[i])
		}
		n := float64(w.sz.simExperiments)
		out.set("op_p50_ms", quantile(all, 0.5), len(all))
		out.set("op_p90_ms", quantile(all, 0.9), len(all))
		out.set("ops_per_s", n/(passMs/1e3), len(all))
		out.set("cpu_ms_per_op", passCPU/n, len(all))
		return attempted, failed
	}
	for i, name := range simExperiments[1:w.sz.simExperiments] {
		out.set("sim."+name+"_s", median(wall[i+1])/1e3, len(wall[i+1]))
	}
	// Counts are summed over the passes run; pass 0's share repeats exactly
	// for one seed, the total depends on how many passes fit.
	out.set("simnet.events", float64(mtr.Events())/float64(max(passes, 1)), passes)
	out.set("simnet.msgs_delivered", float64(mtr.Delivered())/float64(max(passes, 1)), passes)
	out.set("simnet.events_per_s", mtr.EventsPerSec(), passes)
	out.set("simnet.peak_queue", float64(mtr.peak.Load()), passes)
	out.set("load.op_p99_ms", quantile(all, 0.99), len(all))
	return attempted, failed
}

func (w *simPaper) probe(out sink, tr *tracer) error {
	return probeSim(out, tr, w.sz.simSetupNodes, w.seed, w.sz.probeDiv)
}

// check re-runs pass 0 and demands the same tables: the simulator's output is
// a function of its seed.
func (w *simPaper) check(sink) []gate {
	g := gate{Name: "the result tables repeat for one seed", OK: true,
		Detail: fmt.Sprintf("numbers within %g; churn and loss vary run to run at this commit and are left out", simTolerance)}
	_, _, again, err := w.pass(w.params(w.tablesSeed+int64(w.expectSkew)), nil)
	if err != nil {
		g.OK, g.Detail = false, err.Error()
		return []gate{g}
	}
	var differ []string
	for i, t := range again {
		if !simUnstable[simExperiments[i]] && !tablesAgree(w.tables[i], t) {
			differ = append(differ, simExperiments[i])
		}
	}
	if len(differ) > 0 {
		g.OK, g.Detail = false, "tables differ on a re-run: "+strings.Join(differ, ", ")
	}
	return []gate{g}
}

func (w *simPaper) close() {}

// simGraph generates the power-law overlay hirep.NewTestbed builds on.
func simGraph(n int, seed int64) (*topology.Graph, error) {
	return topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, xrand.New(seed).Split("topo"))
}

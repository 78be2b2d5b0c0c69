package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/repstore"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// verified-read: the cheap-GET / verify-on-demand read mix against one
// durable agent. No writes.

const (
	readEvidenceCap = 128 // wires the agent retains per subject; above the preload, so bundles are complete
	readProofCache  = 128 // agent's proof payload cache: the zipf head fits, the tail does not
)

// Read kinds of the mix: 70% plain trust value, 20% signed snapshot, 10%
// proof bundle verified by the client.
const (
	readPlain = iota
	readSnapshot
	readProven
)

var readSpanNames = [...]string{"node.RequestTrust", "node.RequestTrustSnapshot", "node.RequestTrustProven"}

type reads struct {
	sz         sizes
	seed       int64
	tmp        string
	env        *liveEnv
	subjects   []pkc.NodeID
	rng        *xrand.RNG
	timeouts   atomic.Int64
	expectSkew int
}

// positive is the preloaded outcome of report k about subject i; a quarter of
// every subject's reports are negative so tallies are not trivial.
func readPositive(i, k int) bool { return (i+k)%4 != 0 }

// tally is the preloaded tally of subject i, the answer every read must give.
func (w *reads) tally(i int) (pos, neg uint64) {
	for k := 0; k < w.sz.readPreload; k++ {
		if readPositive(i, k) {
			pos++
		} else {
			neg++
		}
	}
	return pos, neg
}

func (w *reads) setup() error {
	w.rng = xrand.New(w.seed)
	w.subjects = genSubjects(w.rng.Split("subjects"), w.sz.readSubjects)
	env, err := startLive(liveSpec{agents: 1, relays: 1, peers: 2, durable: true,
		evidenceCap: readEvidenceCap, proofCache: readProofCache, quorum: 1}, w.tmp)
	if err != nil {
		return err
	}
	w.env = env
	if err := preload(env, w.subjects, readPositive, w.sz.readPreload); err != nil {
		return err
	}
	for c := range env.clients {
		for kind := range readSpanNames {
			if !w.read(c, kind, c, nil) {
				return fmt.Errorf("verified-read: warm-up read failed")
			}
		}
	}
	return nil
}

// read performs one read of the given kind about subject subj and checks the
// answer against the preloaded tally.
func (w *reads) read(c, kind, subj int, tr *tracer) bool {
	cl, agent, s := w.env.clients[c], w.env.infos[0], w.subjects[subj]
	pos, neg := w.tally(subj)
	ok := false
	t0 := time.Now()
	var err error
	switch kind {
	case readPlain:
		var v trust.Value
		var has bool
		v, has, err = cl.nd.RequestTrust(agent, s, cl.reply)
		ok = err == nil && has && v == trust.Value(float64(pos+1)/float64(pos+neg+2))
	case readSnapshot:
		var ts *proof.TrustSnapshot
		ts, err = cl.nd.RequestTrustSnapshot(agent, s, cl.reply) // verifies signature and TTL
		ok = err == nil && ts.Pos == pos && ts.Neg == neg
	case readProven:
		var res proof.Result
		_, res, err = cl.nd.RequestTrustProven(agent, s, cl.reply) // verifies the bundle
		ok = err == nil && res.Verdict == proof.Matching && res.Pos == pos && res.Neg == neg
	}
	tr.add(0, 0, readSpanNames[kind], t0, time.Now())
	if err != nil {
		slow(&w.timeouts, t0)
	}
	return ok
}

func (w *reads) run(seconds float64, tr *tracer, out sink) (attempted, failed int64) {
	clients := min(runtime.GOMAXPROCS(0), len(w.env.clients))
	type src struct {
		mix  *xrand.RNG
		pick *picker
	}
	srcs := make([]src, clients)
	for c := range srcs {
		srcs[c] = src{mix: w.rng.SplitN("mix", c), pick: newPicker(w.rng.SplitN("subjects", c), len(w.subjects))}
	}
	loop := func(share float64, tr *tracer) phase {
		return closedLoop(time.Duration(share*seconds*float64(time.Second)), 1, clients, func(c, _ int) bool {
			kind := readPlain
			if r := srcs[c].mix.Float64(); r >= 0.9 {
				kind = readProven
			} else if r >= 0.7 {
				kind = readSnapshot
			}
			return w.read(c, kind, srcs[c].pick.next(), tr)
		})
	}
	if tr == nil {
		p := loop(1, nil)
		out.set("op_p50_ms", p.latency(0.5), len(p.ops))
		out.set("op_p90_ms", p.latency(0.9), len(p.ops))
		out.set("ops_per_s", p.rate(), len(p.ops))
		out.set("cpu_ms_per_op", p.cpuPerOp(), len(p.ops))
		return int64(len(p.ops)), p.failed()
	}
	before := w.env.counters()
	p := loop(0.6, tr)
	after := w.env.counters()
	plain := loop(0.4, nil)
	layerCounts(out, before, after, len(p.ops))
	for kind, name := range [...]string{"node.request_trust_p50_ms", "node.request_snapshot_p50_ms", "node.request_proven_p50_ms"} {
		lat := tr.durations(readSpanNames[kind], time.Now())
		out.set(name, median(lat), len(lat))
	}
	out.set("load.op_p99_ms", p.latency(0.99), len(p.ops))
	out.set("load.trace_overhead_ratio", p.latency(0.5)/plain.latency(0.5), len(p.ops)+len(plain.ops))
	out.set("node.timeouts", float64(w.timeouts.Load()), len(p.ops)+len(plain.ops))
	return int64(len(p.ops) + len(plain.ops)), p.failed() + plain.failed()
}

func (w *reads) probe(out sink, tr *tracer) error {
	return probeLive(out, tr, probeSpec{evidence: w.sz.readPreload, batch: 1, relays: 1, div: w.sz.probeDiv}, w.tmp)
}

// check demands that the reads changed nothing: the agent and, after a
// restart, its store on disk hold exactly the preload. (Every read's answer
// was already checked against the preloaded tally as it completed.)
func (w *reads) check(out sink) []gate {
	want := w.sz.readSubjects*w.sz.readPreload + w.expectSkew
	g := gate{Name: "the store holds exactly the preload, live and reopened", OK: true}
	if got := w.env.fleet.Agents[0].Agent().ReportCount(); got != want {
		g.OK, g.Detail = false, fmt.Sprintf("agent holds %d reports, preload was %d", got, want)
	}
	w.env.close()
	t0 := time.Now()
	st, err := repstore.Open(w.env.storeDir[0], repstore.Options{EvidenceCap: readEvidenceCap})
	out.set("repstore.recover_s", time.Since(t0).Seconds(), 1)
	if err != nil {
		g.OK, g.Detail = false, fmt.Sprintf("reopen: %v", err)
		return []gate{g}
	}
	if got := st.ReportCount(); got != want {
		g.OK, g.Detail = false, fmt.Sprintf("reopened store holds %d reports, preload was %d", got, want)
	}
	out.set("repstore.disk_bytes_per_report", float64(dirSize(w.env.storeDir[0]))/float64(want), want)
	_ = st.Close()
	return []gate{g}
}

func (w *reads) close() { w.env.close() }

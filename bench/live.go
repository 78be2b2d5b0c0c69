package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/xrand"
)

// opTimeout is every node's request timeout. Live traffic crosses real
// loopback TCP with real crypto and no injected delay, so a healthy op takes
// milliseconds; one that reaches this is counted in node.timeouts and as
// failed, never dropped from the sample.
const opTimeout = 5 * time.Second

// preloadReporters is how many distinct identities sign the preloaded
// reports.
const preloadReporters = 8

// client is one peer node with the trusted-agent book and reply onion it
// transacts through. A client is driven by one goroutine at a time.
type client struct {
	nd    *node.Node
	book  *node.AgentBook
	reply *onion.Onion
}

// liveEnv is a running loopback fleet.
type liveEnv struct {
	fleet    *node.Fleet
	infos    []node.AgentInfo
	clients  []*client
	storeDir []string // per agent, "" for an in-memory store
	closed   bool
}

// liveSpec sizes a fleet.
type liveSpec struct {
	agents, relays, peers int
	durable               bool // agents keep their reports in a WAL store under tmp
	evidenceCap           int
	proofCache            int
	quorum                int
}

// startLive starts the fleet, runs the relay handshakes, publishes every
// agent's onion and gives each peer its book and reply onion.
func startLive(spec liveSpec, tmp string) (*liveEnv, error) {
	env := &liveEnv{storeDir: make([]string, spec.agents)}
	if spec.durable {
		for i := range env.storeDir {
			dir, err := os.MkdirTemp(tmp, "store-")
			if err != nil {
				return nil, err
			}
			env.storeDir[i] = dir
		}
	}
	fl, err := node.StartFleet(node.FleetConfig{
		Agents: spec.agents, Relays: spec.relays, Peers: spec.peers,
		Opts: node.Options{Timeout: opTimeout},
		AgentOpts: func(i int, o *node.Options) {
			o.StoreDir = env.storeDir[i]
			o.EvidenceCap = spec.evidenceCap
			o.ProofCache = spec.proofCache
		},
	})
	if err != nil {
		return nil, err
	}
	env.fleet = fl
	if env.infos, err = fl.AgentInfos(); err != nil {
		env.close()
		return nil, err
	}
	for _, p := range fl.Peers {
		book, err := fl.Book(env.infos, spec.agents, spec.quorum)
		if err == nil {
			p.AttachBook(book)
			var reply *onion.Onion
			if reply, err = fl.ReplyOnion(p); err == nil {
				env.clients = append(env.clients, &client{nd: p, book: book, reply: reply})
				continue
			}
		}
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *liveEnv) close() {
	if e == nil || e.closed {
		return
	}
	e.closed = true
	_ = e.fleet.Close()
}

// nodes lists every node of the fleet.
func (e *liveEnv) nodes() []*node.Node {
	var out []*node.Node
	out = append(out, e.fleet.Agents...)
	out = append(out, e.fleet.Relays...)
	return append(out, e.fleet.Peers...)
}

// counters is a sum over the fleet of the node counters the per-layer metrics
// are made of.
type counters struct {
	framesIn, onionsFwd, onionsExit, trustServed, reportsStored int64
	ingestShed, deferred, lost, cacheHit, cacheMiss             int64
	retries, breakerOpen, outboxDepth, connsOpen                int64
	mallocs, allocBytes                                         uint64
}

func (e *liveEnv) counters() counters {
	var c counters
	for _, nd := range e.nodes() {
		s := nd.Stats()
		c.framesIn += s.FramesIn
		c.onionsFwd += s.OnionsForwarded
		c.onionsExit += s.OnionsExited
		c.trustServed += s.TrustServed
		c.reportsStored += s.ReportsStored
		c.ingestShed += s.IngestShed
		c.deferred += s.ReportsDeferred
		c.lost += s.ReportsLost
		c.cacheHit += s.ProofCacheHits
		c.cacheMiss += s.ProofCacheMisses
		m := nd.Metrics().Snapshot()
		c.retries += m["node_retries_total"]
		c.breakerOpen += m["node_breaker_open_total"]
		c.connsOpen += m["transport_conns_open"]
		if d := int64(nd.OutboxDepth()); d > c.outboxDepth {
			c.outboxDepth = d
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	return c
}

// layerCounts writes the per-op counter metrics for the ops completed between
// two counter readings.
func layerCounts(out sink, before, after counters, ops int) {
	per := func(d int64) float64 { return float64(d) / float64(max(ops, 1)) }
	out.set("node.frames_per_op", per(after.framesIn-before.framesIn), ops)
	out.set("node.onions_fwd_per_op", per(after.onionsFwd-before.onionsFwd), ops)
	out.set("node.allocs_per_op", per(int64(after.mallocs-before.mallocs)), ops)
	out.set("node.bytes_per_op", per(int64(after.allocBytes-before.allocBytes)), ops)
	out.set("node.ingest_shed", float64(after.ingestShed-before.ingestShed), ops)
	out.set("node.reports_deferred", float64(after.deferred-before.deferred), ops)
	out.set("node.reports_lost", float64(after.lost-before.lost), ops)
	out.set("resilience.retry_total", float64(after.retries-before.retries), ops)
	out.set("resilience.breaker_open_total", float64(after.breakerOpen-before.breakerOpen), ops)
	out.set("resilience.outbox_depth_max", float64(max(before.outboxDepth, after.outboxDepth)), ops)
	out.set("transport.conns_open", float64(after.connsOpen), 1)
	if lookups := (after.cacheHit - before.cacheHit) + (after.cacheMiss - before.cacheMiss); lookups > 0 {
		out.set("node.proof_cache_hit_ratio", float64(after.cacheHit-before.cacheHit)/float64(lookups), int(lookups))
	}
}

// preload signs perSubject reports about every subject (report k of subject i
// is positive when positive(i, k)), spread over
// preloadReporters identities, and stores them at every agent directly through
// the agent directory (set-up, not measured traffic).
func preload(env *liveEnv, subjects []pkc.NodeID, positive func(subject, k int) bool, perSubject int) error {
	reporters := make([]*pkc.Identity, preloadReporters)
	wires := make([][][]byte, preloadReporters)
	for r := range reporters {
		id, err := pkc.NewIdentity(nil)
		if err != nil {
			return err
		}
		reporters[r] = id
	}
	for i, s := range subjects {
		for k := 0; k < perSubject; k++ {
			r := (i + k) % preloadReporters
			nonce, err := pkc.NewNonce(nil)
			if err != nil {
				return err
			}
			wires[r] = append(wires[r], agentdir.SignReport(reporters[r], s, positive(i, k), nonce))
		}
	}
	// One goroutine per (agent, reporter): a durable store group-commits
	// concurrent appends, so set-up does not pay one fsync per report.
	errc := make(chan error, len(env.fleet.Agents)*preloadReporters)
	for _, a := range env.fleet.Agents {
		ag := a.Agent()
		for r, rep := range reporters {
			if err := ag.RegisterKey(rep.ID, rep.Sign.Public); err != nil {
				return err
			}
			go func(rep *pkc.Identity, ws [][]byte) {
				var first error
				for lo := 0; lo < len(ws) && first == nil; lo += node.MaxBatchReports {
					_, errs := ag.SubmitReportBatch(rep.ID, ws[lo:min(lo+node.MaxBatchReports, len(ws))])
					for _, err := range errs {
						if err != nil {
							first = err
							break
						}
					}
				}
				errc <- first
			}(rep, wires[r])
		}
	}
	for i := 0; i < cap(errc); i++ {
		if err := <-errc; err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// slow counts an op that reached the node timeout.
func slow(timeouts *atomic.Int64, t0 time.Time) {
	if time.Since(t0) >= opTimeout {
		timeouts.Add(1)
	}
}

// ---------------------------------------------------------------------------
// tx-loop: the paper's §3.6 transaction loop.

const (
	txRateA       = 200 // tx/s, open loop, ≈40% of saturation on the 2-core reference host
	txRateB       = 350 // tx/s, open loop, ≈70%
	txP99LimitMs  = 20  // load.max_rate_ok: a rate is ok while its window p99 stays below
	txP99WindowS  = 2
	txGenLateMaxM = 1.0 // ms: a later generator at txRateA invalidates the run
)

type txLoop struct {
	sz        sizes
	seed      int64
	tmp       string
	env       *liveEnv
	subjects  []pkc.NodeID
	rng       *xrand.RNG
	completed atomic.Int64 // CompleteTransaction calls: one report owed to every agent each
	timeouts  atomic.Int64
	genLate   float64
	budget    string // the budget line's terms, for the report
	// expectSkew corrupts the report-count gate on purpose (-corrupt), to show
	// the command fails when a check does.
	expectSkew int
}

// good is the ground truth: the first half of the subjects behave well.
func (w *txLoop) good(i int) bool { return i < len(w.subjects)/2 }

func (w *txLoop) setup() error {
	w.rng = xrand.New(w.seed)
	w.completed.Store(0)
	w.subjects = genSubjects(w.rng.Split("subjects"), w.sz.txSubjects)
	env, err := startLive(liveSpec{agents: 3, relays: 2, peers: 4, quorum: 2}, w.tmp)
	if err != nil {
		return err
	}
	w.env = env
	if err := preload(env, w.subjects, func(i, _ int) bool { return w.good(i) }, w.sz.txPreload); err != nil {
		return err
	}
	// Warm every peer's sessions and register its key at every agent.
	pick := newPicker(w.rng.Split("warmup"), len(w.subjects))
	for _, c := range env.clients {
		for i := 0; i < w.sz.txWarmup; i++ {
			if !w.tx(c, pick.next(), nil) {
				return fmt.Errorf("tx-loop: warm-up transaction failed")
			}
		}
	}
	return nil
}

// tx runs one transaction: ask the book's agents for the subject through
// onions, transact, report the ground-truth outcome back.
func (w *txLoop) tx(c *client, subj int, tr *tracer) bool {
	s, truth := w.subjects[subj], w.good(subj)
	root := tr.id()
	t0 := time.Now()
	v, perAgent, err := c.nd.EvaluateSubject(c.book, s, c.reply)
	t1 := time.Now()
	tr.add(0, root, "node.EvaluateSubject", t0, t1)
	if err != nil {
		slow(&w.timeouts, t0)
		tr.add(root, 0, "tx", t0, t1)
		return false
	}
	removed := c.nd.CompleteTransaction(c.book, s, truth, perAgent)
	t2 := time.Now()
	w.completed.Add(1)
	tr.add(0, root, "node.CompleteTransaction", t1, t2)
	tr.add(root, 0, "tx", t0, t2)
	// Every agent holds only truthful reports, so the aggregate must agree
	// with the outcome and no agent may lose its place in the book.
	return v.Consistent(truth) && len(perAgent) >= c.book.Quorum() && len(removed) == 0
}

// openPhase drives rate tx/s over all peers with a seeded subject order.
func (w *txLoop) openPhase(label string, rate float64, dur time.Duration, tr *tracer) phase {
	pick := newPicker(w.rng.Split(label), len(w.subjects))
	order := make([]int, int(rate*dur.Seconds()))
	for i := range order {
		order[i] = pick.next()
	}
	cl := w.env.clients
	return openLoop(rate, dur, 1, len(cl), func(worker, i int) bool {
		return w.tx(cl[worker], order[i], tr)
	})
}

// closedPhase drives nproc clients, each on its own peer.
func (w *txLoop) closedPhase(label string, dur time.Duration, tr *tracer) phase {
	clients := min(runtime.GOMAXPROCS(0), len(w.env.clients))
	picks := make([]*picker, clients)
	for c := range picks {
		picks[c] = newPicker(w.rng.SplitN(label, c), len(w.subjects))
	}
	return closedLoop(dur, 1, clients, func(c, _ int) bool {
		return w.tx(w.env.clients[c], picks[c].next(), tr)
	})
}

func (w *txLoop) run(seconds float64, tr *tracer, out sink) (attempted, failed int64) {
	sec := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	if tr == nil {
		// Untraced: 60% open loop at txRateA for the latency figures, 40%
		// closed loop for throughput.
		a := w.openPhase("A", txRateA, sec(0.6), nil)
		c := w.closedPhase("C", sec(0.4), nil)
		out.set("op_p50_ms", a.latency(0.5), len(a.ops))
		out.set("op_p90_ms", a.latency(0.9), len(a.ops))
		out.set("cpu_ms_per_op", a.cpuPerOp(), len(a.ops))
		out.set("ops_per_s", c.rate(), len(c.ops))
		w.genLate = quantile(a.lateMs, 0.99)
		return int64(len(a.ops) + len(c.ops)), a.failed() + c.failed()
	}
	// Traced: both open-loop rates, then the closed loop with and without
	// span recording; the ratio of the two is the tracing overhead.
	before := w.env.counters()
	a := w.openPhase("A", txRateA, sec(0.35), tr)
	endA := time.Now()
	after := w.env.counters()
	b := w.openPhase("B", txRateB, sec(0.25), tr)
	c := w.closedPhase("C", sec(0.2), tr)
	plain := w.closedPhase("C-untraced", sec(0.2), nil)

	layerCounts(out, before, after, len(a.ops))
	w.genLate = quantile(a.lateMs, 0.99)
	out.set("load.gen_late_p99_ms", w.genLate, len(a.lateMs))
	p99A, _, _ := windowP99(a.ops, txP99WindowS)
	out.set("load.op_p99_ms", p99A, len(a.ops))
	p99B, firstB, lastB := windowP99(b.ops, txP99WindowS)
	out.set("load.tx_p50_ms_r350", b.latency(0.5), len(b.ops))
	out.set("load.tx_p99_ms_r350", p99B, len(b.ops))
	okRate := 0.0
	if p99A <= txP99LimitMs {
		okRate = txRateA
		// A backlog that grows shows as the last window's median running
		// away from the first's.
		if p99B <= txP99LimitMs && lastB <= 2*firstB+1 {
			okRate = txRateB
		}
	}
	out.set("load.max_rate_ok", okRate, len(a.ops)+len(b.ops))
	out.set("load.trace_overhead_ratio", c.latency(0.5)/plain.latency(0.5), len(c.ops)+len(plain.ops))

	ev, co := tr.durations("node.EvaluateSubject", endA), tr.durations("node.CompleteTransaction", endA)
	out.set("node.evaluate_p50_ms", median(ev), len(ev))
	out.set("node.complete_p50_ms", median(co), len(co))
	out.set("node.timeouts", float64(w.timeouts.Load()), len(a.ops)+len(b.ops)+len(c.ops)+len(plain.ops))
	// Kept for the budget line, which needs the probe results too.
	out.set("node.tx_unexplained_ms", a.latency(0.5), len(a.ops))
	return int64(len(a.ops) + len(b.ops) + len(c.ops) + len(plain.ops)), a.failed() + b.failed() + c.failed() + plain.failed()
}

func (w *txLoop) check(sink) []gate {
	env := w.env
	// A late generator does not make the program's outputs wrong; it makes the
	// run's latencies unfit for comparison, so it is a warning, not a failure.
	gates := []gate{{Name: "generator ran on time", OK: w.genLate < txGenLateMaxM, Warn: true,
		Detail: fmt.Sprintf("load.gen_late_p99_ms %.3f at %d tx/s, limit %.1f", w.genLate, txRateA, txGenLateMaxM)}}
	books := gate{Name: "every book still holds its agents", OK: true}
	outbox := gate{Name: "every outbox is empty", OK: true}
	for i, c := range env.clients {
		if n := c.book.Len(); n != len(env.infos) {
			books.OK, books.Detail = false, fmt.Sprintf("peer %d holds %d of %d agents", i, n, len(env.infos))
		}
		if d := c.nd.OutboxDepth(); d != 0 {
			outbox.OK, outbox.Detail = false, fmt.Sprintf("peer %d has %d reports queued", i, d)
		}
	}
	// Reports are fire-and-forget through two relays; give the tail a
	// bounded time to land, then demand the exact count.
	want := w.sz.txSubjects*w.sz.txPreload + int(w.completed.Load()) + w.expectSkew
	reports := gate{Name: "no acknowledged report lost", OK: true}
	end := time.Now().Add(3 * time.Second)
	for i, a := range env.fleet.Agents {
		got := a.Agent().ReportCount()
		for ; got != want && time.Now().Before(end); got = a.Agent().ReportCount() {
			time.Sleep(10 * time.Millisecond)
		}
		if got != want {
			reports.OK, reports.Detail = false, fmt.Sprintf("agent %d holds %d reports, want preload+completed = %d", i, got, want)
		}
	}
	return append(gates, books, outbox, reports)
}

func (w *txLoop) close() { w.env.close() }

// ---------------------------------------------------------------------------
// ingest-durable: batched, acknowledged, fsynced report ingest.

const ingestEvidence = 64 // wires the agents retain per subject

type ingest struct {
	sz         sizes
	seed       int64
	tmp        string
	env        *liveEnv
	subjects   []pkc.NodeID
	rng        *xrand.RNG
	acked      []atomic.Int64 // per agent: reports acknowledged StatusStored
	timeouts   atomic.Int64
	epoch0     []uint64
	expectSkew int
}

func (w *ingest) setup() error {
	w.rng = xrand.New(w.seed)
	w.subjects = genSubjects(w.rng.Split("subjects"), w.sz.ingestSubjects)
	env, err := startLive(liveSpec{agents: 2, relays: 1, peers: 2, durable: true, evidenceCap: ingestEvidence, quorum: 1}, w.tmp)
	if err != nil {
		return err
	}
	w.env = env
	// The measured batches land in a store that already holds a report about
	// every subject, as a running agent's would.
	if err := preload(env, w.subjects, func(i, _ int) bool { return i%2 == 0 }, 1); err != nil {
		return err
	}
	w.acked = make([]atomic.Int64, len(env.infos))
	w.epoch0 = nil
	for _, a := range env.fleet.Agents {
		w.epoch0 = append(w.epoch0, a.Agent().Store().WALEpoch())
	}
	// One small batch per client opens its session and registers its key.
	for c := range env.clients {
		if !w.batch(c, w.rng.SplitN("warmup", c), 8, nil) {
			return fmt.Errorf("ingest-durable: warm-up batch failed")
		}
	}
	return nil
}

// batch sends one ReportBatch of n reports, uniform over the subjects, from
// client c to agent c and waits for the per-report ack.
func (w *ingest) batch(c int, rng *xrand.RNG, n int, tr *tracer) bool {
	reports := make([]node.BatchReport, n)
	for i := range reports {
		reports[i] = node.BatchReport{Subject: w.subjects[rng.Intn(len(w.subjects))], Positive: rng.Bool(0.5)}
	}
	cl, agent := w.env.clients[c], c%len(w.env.infos)
	t0 := time.Now()
	statuses, err := cl.nd.ReportBatch(w.env.infos[agent], reports, cl.reply)
	tr.add(0, 0, "node.ReportBatch", t0, time.Now())
	if err != nil {
		slow(&w.timeouts, t0)
	}
	stored := 0
	for _, st := range statuses {
		if st == node.StatusStored {
			stored++
		}
	}
	w.acked[agent].Add(int64(stored))
	return err == nil && stored == n
}

func (w *ingest) run(seconds float64, tr *tracer, out sink) (attempted, failed int64) {
	clients := min(runtime.GOMAXPROCS(0), len(w.env.clients))
	rngs := make([]*xrand.RNG, clients)
	for c := range rngs {
		rngs[c] = w.rng.SplitN("client", c)
	}
	loop := func(share float64, tr *tracer) phase {
		return closedLoop(time.Duration(share*seconds*float64(time.Second)), 4, clients, func(c, _ int) bool {
			return w.batch(c, rngs[c], w.sz.ingestBatch, tr)
		})
	}
	if tr == nil {
		p := loop(1, nil)
		out.set("op_p50_ms", p.latency(0.5), len(p.ops))
		out.set("op_p90_ms", p.latency(0.9), len(p.ops))
		out.set("ops_per_s", p.rate()*float64(w.sz.ingestBatch), len(p.ops))
		out.set("cpu_ms_per_op", p.cpuPerOp()/float64(w.sz.ingestBatch), len(p.ops))
		return int64(len(p.ops)), p.failed()
	}
	before := w.env.counters()
	p := loop(0.6, tr)
	after := w.env.counters()
	plain := loop(0.4, nil)
	layerCounts(out, before, after, len(p.ops))
	lat := tr.durations("node.ReportBatch", time.Now())
	out.set("node.report_batch_p50_ms", median(lat), len(lat))
	out.set("load.op_p99_ms", p.latency(0.99), len(p.ops))
	out.set("load.trace_overhead_ratio", p.latency(0.5)/plain.latency(0.5), len(p.ops)+len(plain.ops))
	out.set("node.timeouts", float64(w.timeouts.Load()), len(p.ops)+len(plain.ops))
	return int64(len(p.ops) + len(plain.ops)), p.failed() + plain.failed()
}

// check closes the fleet, reopens every agent's store from disk and demands
// exactly the acknowledged reports.
func (w *ingest) check(out sink) []gate {
	var compactions uint64
	for i, a := range w.env.fleet.Agents {
		compactions += a.Agent().Store().WALEpoch() - w.epoch0[i]
	}
	w.env.close()
	g := gate{Name: "reopened stores hold exactly the acked reports", OK: true}
	var (
		stored, diskBytes int64
		recoverS          float64
	)
	for i, dir := range w.env.storeDir {
		diskBytes += dirSize(dir)
		t0 := time.Now()
		st, err := repstore.Open(dir, repstore.Options{EvidenceCap: ingestEvidence})
		recoverS += time.Since(t0).Seconds()
		if err != nil {
			g.OK, g.Detail = false, fmt.Sprintf("agent %d: reopen: %v", i, err)
			continue
		}
		got, want := st.ReportCount(), w.sz.ingestSubjects+int(w.acked[i].Load())+w.expectSkew
		stored += int64(got)
		if got != want {
			g.OK, g.Detail = false, fmt.Sprintf("agent %d: store holds %d reports, preload + acked = %d", i, got, want)
		}
		_ = st.Close()
	}
	out.set("repstore.compactions", float64(compactions), len(w.env.storeDir))
	out.set("repstore.recover_s", recoverS, len(w.env.storeDir))
	out.set("repstore.disk_bytes_per_report", float64(diskBytes)/float64(max(stored, 1)), int(stored))
	return []gate{g}
}

func (w *ingest) close() { w.env.close() }

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// probe runs the layer probes, then reconciles their unit costs with the
// measured transaction: the budget line.
//
// One transaction blocks on EvaluateSubject, then CompleteTransaction.
// EvaluateSubject asks the book's agents in parallel; each request is a chain
// of steps that cannot overlap: the peer verifies the agent's onion and seals
// the request; each of the agent onion's relays peels; the agent peels, opens,
// verifies the reply onion, signs and seals the answer; the reply relay peels;
// the peer peels, opens and verifies. Every arrow is one pooled frame, priced
// at half a pooled round trip. The chains of one transaction share the host's
// cores, so their CPU is divided by min(agents, nproc). CompleteTransaction
// blocks only on the peer's own work per agent — sign, seal, one frame; the
// relays and agents take the reports in off the blocking path.
func (w *txLoop) probe(out sink, tr *tracer) error {
	const relays, replyRelays = 2, 1
	if err := probeLive(out, tr, probeSpec{evidence: w.sz.txPreload, batch: 1, relays: relays, div: w.sz.probeDiv}, w.tmp); err != nil {
		return err
	}
	us := func(name string) float64 { return out[name].Value }
	agents := float64(len(w.env.infos))
	hop := us("transport.rtt_pooled_us") / 2
	peels := float64(relays + 1 + replyRelays + 1)
	hops := float64(relays + 1 + replyRelays + 1)
	chain := 3*us("pkc.verify_us") + 2*us("pkc.seal_us") + 2*us("pkc.open_us") + us("pkc.sign_us") +
		peels*us("onion.peel_us") + hops*hop
	evaluate := chain * agents / min(agents, float64(runtime.GOMAXPROCS(0)))
	complete := agents * (us("pkc.sign_us") + us("pkc.seal_us") + hop)
	p50 := out["node.tx_unexplained_ms"] // run() left the measured p50 here
	explained := (evaluate + complete) / 1e3
	out.set("node.tx_explained_ms", explained, p50.N)
	out.set("node.tx_unexplained_ms", p50.Value-explained, p50.N)
	w.budget = fmt.Sprintf("chain %.0fus = 3 verify + 2 seal + 2 open + 1 sign + %.0f peel + %.0f hop(%.1fus); "+
		"evaluate %.0fus = chain x %.0f agents / %.0f cores (measured p50 %.0fus); "+
		"complete %.0fus = %.0f x (sign + seal + hop) (measured p50 %.0fus); frames per tx %.1f, model %.0f",
		chain, peels, hops, hop, evaluate, agents, min(agents, float64(runtime.GOMAXPROCS(0))), out["node.evaluate_p50_ms"].Value*1e3,
		complete, agents, out["node.complete_p50_ms"].Value*1e3,
		out["node.frames_per_op"].Value, agents*(hops+relays+1))
	return nil
}

func (w *ingest) probe(out sink, tr *tracer) error {
	return probeLive(out, tr, probeSpec{evidence: ingestEvidence, batch: w.sz.ingestBatch, relays: 1, div: w.sz.probeDiv}, w.tmp)
}

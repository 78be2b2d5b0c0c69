package node

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/overlay"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
)

// benchFleet builds agent + peer + relay once per benchmark.
func benchFleet(b *testing.B) (agentNode, peer *Node, info AgentInfo, replyOnion *onion.Onion) {
	b.Helper()
	return benchFleetOpts(b, Options{})
}

// benchFleetOpts is benchFleet with extra knobs on the agent's Options (the
// admission benchmark arms the sybil gate through it).
func benchFleetOpts(b *testing.B, agentOpts Options) (agentNode, peer *Node, info AgentInfo, replyOnion *onion.Onion) {
	b.Helper()
	mk := func(isAgent bool) *Node {
		opts := Options{Timeout: 10 * time.Second}
		if isAgent {
			opts = agentOpts
			opts.Agent = true
			opts.Timeout = 10 * time.Second
		}
		n, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = n.Close() })
		return n
	}
	agentNode, peer = mk(true), mk(false)
	relay := mk(false)
	rel, err := agentNode.FetchAnonKey(relay.Addr())
	if err != nil {
		b.Fatal(err)
	}
	o, err := agentNode.BuildOnion([]relayAlias{rel})
	if err != nil {
		b.Fatal(err)
	}
	info = agentNode.Info(o)
	prel, err := peer.FetchAnonKey(relay.Addr())
	if err != nil {
		b.Fatal(err)
	}
	po, err := peer.BuildOnion([]relayAlias{prel})
	if err != nil {
		b.Fatal(err)
	}
	return agentNode, peer, info, po
}

// BenchmarkLiveTrustRequest measures one full onion-routed trust request /
// response round trip over real loopback TCP with real crypto (seal, peel,
// sign, verify at every stage).
func BenchmarkLiveTrustRequest(b *testing.B) {
	_, peer, info, replyOnion := benchFleet(b)
	subject, _ := pkc.NewIdentity(nil)
	// Warm: registers the peer's key at the agent.
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveReport measures one signed, sealed, onion-routed transaction
// report (fire-and-forget).
func BenchmarkLiveReport(b *testing.B) {
	_, peer, info, replyOnion := benchFleet(b)
	subject, _ := pkc.NewIdentity(nil)
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := peer.ReportTransaction(info, subject.ID, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestSingle measures the acknowledged ingest of one report per
// round trip — a TReportBatch of size 1: sign, seal, onion route, verify,
// store append, signed ack back. It is the baseline BenchmarkIngestBatched
// is judged against in verify.sh. Like it, this runs on the memory store.
func BenchmarkIngestSingle(b *testing.B) {
	_, peer, info, replyOnion := benchFleet(b)
	subject, _ := pkc.NewIdentity(nil)
	one := []BatchReport{{Subject: subject.ID, Positive: true}}
	// Warm: registers the peer's key at the agent and opens the session.
	if _, err := peer.ReportBatch(info, one, replyOnion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statuses, err := peer.ReportBatch(info, one, replyOnion)
		if err != nil {
			b.Fatal(err)
		}
		if statuses[0] != StatusStored {
			b.Fatalf("acked %v", statuses[0])
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkIngestBatched measures acknowledged end-to-end ingest — wire →
// batch-verified → stored → acked — at 256 reports per frame. ns/op is per
// BATCH; the reports/sec metric and the verify.sh gate divide by the batch
// size, and the ratio against BenchmarkIngestSingle×256 is the pipeline's
// amortization win (ROADMAP item 2 targets ≥5x). Stored is not durable here:
// benchFleet sets no StoreDir, so the agent appends to the memory store and
// no batch waits on a WAL write or an fsync. The durable figure is the
// ingest-durable workload of bench/ — comparing the two is comparing a
// memory append with 256 group commits, not an unexplained slowdown.
func BenchmarkIngestBatched(b *testing.B) {
	const size = 256
	_, peer, info, replyOnion := benchFleet(b)
	subject, _ := pkc.NewIdentity(nil)
	reports := make([]BatchReport, size)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	if _, err := peer.ReportBatch(info, reports[:1], replyOnion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statuses, err := peer.ReportBatch(info, reports, replyOnion)
		if err != nil {
			b.Fatal(err)
		}
		for j, st := range statuses {
			if st != StatusStored {
				b.Fatalf("report %d acked %v", j, st)
			}
		}
	}
	b.ReportMetric(float64(b.N)*size/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkIngestAdmission is BenchmarkIngestBatched with the agent's
// sybil-admission gate armed (DESIGN.md §13): the sender pays one proof of
// work in the warm-up, then every measured batch is from an already-admitted
// identity. The verify.sh gate holds this within 5% of BenchmarkIngestBatched
// — steady-state admission costs one map lookup per batch, not crypto.
func BenchmarkIngestAdmission(b *testing.B) {
	const size = 256
	_, peer, info, replyOnion := benchFleetOpts(b, Options{AdmissionPoWBits: 8})
	subject, _ := pkc.NewIdentity(nil)
	reports := make([]BatchReport, size)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	// Warm: bounces once, mints the admission proof, registers the key.
	if _, err := peer.ReportBatch(info, reports[:1], replyOnion); err != nil {
		b.Fatal(err)
	}
	if got := metric(b, peer, "node_admission_solved_total"); got != 1 {
		b.Fatalf("warm-up solved %d proofs, want 1", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statuses, err := peer.ReportBatch(info, reports, replyOnion)
		if err != nil {
			b.Fatal(err)
		}
		for j, st := range statuses {
			if st != StatusStored {
				b.Fatalf("report %d acked %v", j, st)
			}
		}
	}
	b.ReportMetric(float64(b.N)*size/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkIngestAudited is BenchmarkIngestBatched with the agent retaining
// evidence and under continuous background audit (DESIGN.md §15): a second
// peer runs the auditor at the campaign's default cadence (150ms), so
// proof-bundle fetches (assembly and per-wire verification at cap 64)
// interleave with the measured ingest on the same agent. The verify.sh gate
// holds this within 5% of BenchmarkIngestBatched (plus noise headroom) —
// audit sweeps are read-side traffic and must not tax the ingest hot path.
func BenchmarkIngestAudited(b *testing.B) {
	const size = 256
	_, peer, info, replyOnion := benchFleetOpts(b, Options{EvidenceCap: 64})
	auditorNode, err := Listen("127.0.0.1:0", Options{
		Timeout:       10 * time.Second,
		AuditInterval: 150 * time.Millisecond,
		AuditSample:   2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = auditorNode.Close() })
	// The auditor gets its own relay: the proof fetches still land on the
	// agent under test, but reply transit does not double as agent load.
	auditRelay, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = auditRelay.Close() })
	rel, err := auditorNode.FetchAnonKey(auditRelay.Addr())
	if err != nil {
		b.Fatal(err)
	}
	ao, err := auditorNode.BuildOnion([]relayAlias{rel})
	if err != nil {
		b.Fatal(err)
	}
	book, err := NewAgentBook(1, 0.3, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	if !book.Add(info) {
		b.Fatal("book rejected agent")
	}
	if err := auditorNode.StartAuditor(book, ao); err != nil {
		b.Fatal(err)
	}

	subject, _ := pkc.NewIdentity(nil)
	auditorNode.NoteAuditSubjects(subject.ID)
	reports := make([]BatchReport, size)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	if _, err := peer.ReportBatch(info, reports[:1], replyOnion); err != nil {
		b.Fatal(err)
	}
	// Warm until the first sweep completes, so every measured iteration runs
	// with the audit load already established.
	for end := time.Now().Add(10 * time.Second); auditorNode.Stats().AuditSweeps == 0; {
		if !time.Now().Before(end) {
			b.Fatal("auditor never completed a sweep")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statuses, err := peer.ReportBatch(info, reports, replyOnion)
		if err != nil {
			b.Fatal(err)
		}
		for j, st := range statuses {
			if st != StatusStored {
				b.Fatalf("report %d acked %v", j, st)
			}
		}
	}
	b.ReportMetric(float64(b.N)*size/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkRoundTripDirect measures one legacy one-shot frame round trip
// over loopback — dial, write, read, close per frame, exactly what the
// pre-transport node paid on every message. It is the baseline
// BenchmarkRoundTripPooled is judged against.
func BenchmarkRoundTripDirect(b *testing.B) {
	target, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = target.Close() })
	dial := resilience.NetDialer("tcp")
	nonce, _ := pkc.NewNonce(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transport.DirectRoundTrip(dial, target.Addr(), wire.TPing, nonce[:], 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripPooled measures the same frame round trip through the
// node's pooled, stream-multiplexed transport, with RunParallel keeping
// many streams in flight the way live protocol traffic does. Throughput
// (frames/sec) against BenchmarkRoundTripDirect is the transport's
// amortized win over dial-per-frame.
func BenchmarkRoundTripPooled(b *testing.B) {
	target, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second, MaxStreams: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = target.Close() })
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second, MaxStreams: 256, PoolSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = peer.Close() })
	nonce, _ := pkc.NewNonce(nil)
	// Warm: establish the session so negotiation is out of the loop.
	if _, _, err := peer.roundTripTimeout(target.Addr(), wire.TPing, nonce[:], peer.timeout()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.SetParallelism(32) // many goroutines per proc: keep the stream windows busy
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := peer.roundTripTimeout(target.Addr(), wire.TPing, nonce[:], peer.timeout()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRoundTripRetry measures the identical round trip through the
// retry wrapper on its happy path (zero retries taken); the delta against
// BenchmarkRoundTripDirect is the resilience layer's hot-path overhead.
func BenchmarkRoundTripRetry(b *testing.B) {
	_, peer, _, _ := benchFleet(b)
	target, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = target.Close() })
	nonce, _ := pkc.NewNonce(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := peer.roundTrip(target.Addr(), wire.TPing, nonce[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelayHandshake measures the complete Figure 3 anonymity-key fetch
// (two TCP round trips, two seals, two opens).
func BenchmarkRelayHandshake(b *testing.B) {
	_, peer, _, _ := benchFleet(b)
	relay, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = relay.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.FetchAnonKey(relay.Addr()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestSharded measures aggregate acknowledged, verified-durable
// ingest through the routed overlay, at one verification worker per agent so
// the per-group ingest ceiling is explicit: with the subject space split
// across two groups, aggregate reports/sec must scale toward 2x one group
// (verify.sh gates the ratio at >= 1.7x). Each sub-benchmark drives every
// group with a window of in-flight 256-report batches, all subjects
// pre-routed to their owning group; ns/op is per round of one batch per
// group, so reports/sec divides by 256 x groups.
func BenchmarkIngestSharded(b *testing.B) {
	for _, groups := range []int{1, 2} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			benchIngestSharded(b, groups)
		})
	}
}

func benchIngestSharded(b *testing.B, ngroups int) {
	const (
		size   = 256 // reports per batch frame
		shards = 8   // placement + store shard count
		window = 4   // in-flight batches per group
	)
	// The fleet shares one process here, but each group in a real deployment
	// is its own node with its own OS threads: a group blocked in its store's
	// commit fsync never stalls another group's verification. With GOMAXPROCS
	// clamped to the container's core count, that blocked M idles the only P
	// until sysmon retakes it — longer than the fsync itself — serializing
	// the fleet. Granting spare Ps (same fixed count for every sub-benchmark)
	// restores the per-node thread model; it adds no CPU, only the freedom
	// for independent commit waits to overlap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.NumCPU())))
	mk := func(opts Options) *Node {
		if opts.Timeout <= 0 {
			opts.Timeout = 10 * time.Second
		}
		n, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = n.Close() })
		return n
	}
	// Per-group front end: every group gets its own relay and its own
	// reporter node, as in a deployed fleet where each group faces its own
	// slice of the client population. A single shared relay or reporter
	// would itself become the fleet's bottleneck and hide the scaling under
	// test.
	agents := make([]*Node, ngroups)
	infos := make([]AgentInfo, ngroups)
	groups := make([]overlay.Group, ngroups)
	peers := make([]*Node, ngroups)
	pos := make([]*onion.Onion, ngroups)
	for g := range agents {
		relay := mk(Options{})
		peers[g] = mk(Options{})
		prel, err := peers[g].FetchAnonKey(relay.Addr())
		if err != nil {
			b.Fatal(err)
		}
		pos[g], err = peers[g].BuildOnion([]relayAlias{prel})
		if err != nil {
			b.Fatal(err)
		}
		agents[g] = mk(Options{
			Agent: true, VerifyWorkers: 1, StoreShards: shards,
			StoreDir: b.TempDir(), Group: fmt.Sprintf("g%d", g),
		})
		rel, err := agents[g].FetchAnonKey(relay.Addr())
		if err != nil {
			b.Fatal(err)
		}
		o, err := agents[g].BuildOnion([]relayAlias{rel})
		if err != nil {
			b.Fatal(err)
		}
		infos[g] = agents[g].Info(o)
		groups[g] = overlay.Group{ID: fmt.Sprintf("g%d", g), Descriptor: EncodeInfo(infos[g])}
	}
	auth, _ := pkc.NewIdentity(nil)
	m, err := overlay.Plan(1, shards, groups)
	if err != nil {
		b.Fatal(err)
	}
	signed, err := overlay.Encode(auth, m)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range agents {
		if err := a.SetPlacement(signed); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range peers {
		if err := p.SetPlacement(signed); err != nil {
			b.Fatal(err)
		}
	}

	// One standing batch per group, every subject owned by that group.
	batches := make([][]BatchReport, ngroups)
	for g := range batches {
		batches[g] = make([]BatchReport, 0, size)
		for len(batches[g]) < size {
			var id pkc.NodeID
			if _, err := rand.Read(id[:]); err != nil {
				b.Fatal(err)
			}
			if m.Owner(id) == g {
				batches[g] = append(batches[g], BatchReport{Subject: id, Positive: len(batches[g])%2 == 0})
			}
		}
	}
	// Warm: register each reporter's key and open its session at its agent.
	for g := range agents {
		if _, err := peers[g].ReportBatch(infos[g], batches[g][:1], pos[g]); err != nil {
			b.Fatal(err)
		}
	}
	// Pre-build every TReportBatch frame (sign each report with a fresh
	// nonce, seal to the agent's anonymity key). The gate measures the
	// fleet's ingest capacity — onion transit, batch verification, durable
	// append, signed ack — not the reporters' signing throughput, and a real
	// fleet's load comes from many reporters whose signing runs on other
	// machines. On this one-core fleet-in-a-process, leaving load generation
	// in the timed section would charge both sub-benchmarks for it and mask
	// the scaling under test.
	prepared := make([][]preparedBatch, ngroups)
	for g := range prepared {
		prepared[g] = make([]preparedBatch, b.N)
		for i := range prepared[g] {
			prepared[g][i] = prepareBatchFrame(b, peers[g], infos[g], batches[g], pos[g])
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, ngroups*window)
	for g := 0; g < ngroups; g++ {
		next := new(atomic.Int64)
		for w := 0; w < window; w++ {
			wg.Add(1)
			go func(g int, next *atomic.Int64) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					statuses, err := peers[g].sendBatchFrame(infos[g], prepared[g][i], 10*time.Second)
					if err != nil {
						errc <- err
						return
					}
					for _, st := range statuses {
						if st != StatusStored {
							errc <- fmt.Errorf("report acked %v", st)
							return
						}
					}
				}
			}(g, next)
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)*size*float64(ngroups)/b.Elapsed().Seconds(), "reports/sec")
}

// preparedBatch is one pre-signed, pre-sealed TReportBatch frame.
type preparedBatch struct {
	sealedRequest
	count int
}

// prepareBatchFrame builds what reportBatchOnce would have built inline: a
// fresh batch nonce, every report signed under its own nonce, the whole
// frame sealed to the agent. Sending it later is replay-safe because every
// frame carries nonces never sent before.
func prepareBatchFrame(b *testing.B, n *Node, agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion) preparedBatch {
	b.Helper()
	q, err := n.newRequest(replyOnion)
	if err != nil {
		b.Fatal(err)
	}
	wires := make([][]byte, len(reports))
	for i, r := range reports {
		rn, err := pkc.NewNonce(nil)
		if err != nil {
			b.Fatal(err)
		}
		wires[i] = agentdir.SignReport(q.self, r.Subject, r.Positive, rn)
	}
	encodeBatchBody(&q.body, wires, nil)
	sealed, err := q.seal(agent.AP)
	if err != nil {
		b.Fatal(err)
	}
	return preparedBatch{sealedRequest: sealed, count: len(reports)}
}

// sendBatchFrame runs the send/ack half of reportBatchOnce for a prepared
// frame.
func (n *Node) sendBatchFrame(agent AgentInfo, pb preparedBatch, wait time.Duration) ([]ReportStatus, error) {
	r, err := n.sendAndAwait(agent, wire.TReportBatch, pb.sealedRequest, wait)
	if err != nil {
		return nil, err
	}
	ack, err := decodeBatchAck(&r, pb.count)
	return ack.statuses, err
}

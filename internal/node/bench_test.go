package node

import (
	"testing"
	"time"

	"hirep/internal/onion"
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
// report on the unacknowledged fast path (reportTransaction).
func BenchmarkLiveReport(b *testing.B) {
	_, peer, info, replyOnion := benchFleet(b)
	subject, _ := pkc.NewIdentity(nil)
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := peer.reportTransaction(info, subject.ID, true); err != nil {
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
	target, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = target.Close() })
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 10 * time.Second})
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

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
	mk := func(isAgent bool) *Node {
		n, err := Listen("127.0.0.1:0", Options{Agent: isAgent, Timeout: 10 * time.Second})
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
// amortization win (DESIGN.md §11 targets ≥5x). Stored is not durable here:
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

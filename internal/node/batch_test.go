package node

import (
	"errors"
	"testing"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/wire"
)

// batchPair builds agent + peer + relay and returns the agent's published
// descriptor and the peer's reply onion, the standing fixture of every
// batched-ingest test.
func batchPair(t *testing.T, agentOpts Options) (agentNode, peer *Node, info AgentInfo, replyOnion *onion.Onion) {
	t.Helper()
	if agentOpts.Timeout <= 0 {
		agentOpts.Timeout = 5 * time.Second
	}
	agentOpts.Agent = true
	agentNode, err := Listen("127.0.0.1:0", agentOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agentNode.Close() })
	plain := fleet(t, 2, 0)
	peer, relay := plain[0], plain[1]
	ao, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	po, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	return agentNode, peer, agentNode.Info(ao), po
}

// sendWires runs one batch/ack exchange for hand-crafted report wires, the
// way reportBatchOnce does for freshly signed ones.
func sendWires(t *testing.T, peer *Node, info AgentInfo, wires [][]byte, replyOnion *onion.Onion) []ReportStatus {
	t.Helper()
	q, err := peer.newRequest(replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	encodeBatchBody(&q.body, wires)
	r, err := peer.exchange(info, wire.TReportBatch, &q, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	statuses, err := decodeBatchAck(&r, len(wires))
	if err != nil {
		t.Fatal(err)
	}
	return statuses
}

// TestBatchAckRejectsUndefinedStatus crafts acks carrying a status byte past
// the last defined one. Read as a status it would not be retryable, so the
// delivery loop would settle it as a final reject and retire the report from
// the outbox unstored: the ack must be refused as a bad answer instead,
// leaving the report to be delivered again.
func TestBatchAckRejectsUndefinedStatus(t *testing.T) {
	decode := func(raw []byte) ([]ReportStatus, error) {
		var e wire.Encoder
		e.Bytes(raw)
		return decodeBatchAck(wire.NewDecoder(e.Encode()), len(raw))
	}
	for _, v := range []byte{byte(numStatuses), 0xff} {
		if statuses, err := decode([]byte{byte(StatusStored), v}); !errors.Is(err, ErrBadAgent) {
			t.Fatalf("status byte %d: ack %v accepted (err %v), want ErrBadAgent", v, statuses, err)
		}
	}
	for st := StatusStored; int(st) < numStatuses; st++ {
		if statuses, err := decode([]byte{byte(st)}); err != nil || statuses[0] != st {
			t.Fatalf("defined status %v: %v, %v", st, statuses, err)
		}
	}
}

// TestReportBatchLive drives a full batch/ack exchange over real loopback
// TCP: every report must come back acknowledged as stored, land in the
// agent's store, and be counted on both sides.
func TestReportBatchLive(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	subject, _ := pkc.NewIdentity(nil)
	const n = 50
	reports := make([]BatchReport, n)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	statuses, err := peer.ReportBatch(info, reports, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != n {
		t.Fatalf("ack carried %d statuses, want %d", len(statuses), n)
	}
	for i, st := range statuses {
		if st != StatusStored {
			t.Fatalf("report %d acked %v, want stored", i, st)
		}
	}
	if got := agentNode.Agent().ReportCount(); got != n {
		t.Fatalf("agent stored %d reports, want %d", got, n)
	}
	stored, batches := agentNode.Stats().ReportsStored, metric(t, agentNode, "node_report_batches_total")
	if stored != n || batches != 1 {
		t.Fatalf("agent stats: stored=%d batches=%d, want %d/1", stored, batches, n)
	}
}

// TestReportBatchMixed hand-crafts a batch mixing a valid report, a
// replayed nonce, a signature under the wrong key, and a malformed wire —
// the valid report must still commit and every reject must come back named
// in the ack and counted by reason, none of them conflated with a store
// failure. This is the regression test for the silent-drop bug: before the
// ack pipeline, all three rejects would have vanished without a trace.
func TestReportBatchMixed(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	subject, _ := pkc.NewIdentity(nil)
	stranger, _ := pkc.NewIdentity(nil)
	self := peer.identity()
	dup, _ := pkc.NewNonce(nil)
	fresh, _ := pkc.NewNonce(nil)
	strangerNonce, _ := pkc.NewNonce(nil)
	wires := [][]byte{
		agentdir.SignReport(self, subject.ID, true, fresh),             // valid
		agentdir.SignReport(self, subject.ID, true, dup),               // valid (first use of dup)
		agentdir.SignReport(self, subject.ID, false, dup),              // replay of dup
		agentdir.SignReport(stranger, subject.ID, true, strangerNonce), // signed by the wrong key
		[]byte("not a report"),                                         // malformed
	}
	want := []ReportStatus{StatusStored, StatusStored, StatusReplay, StatusBadKey, StatusMalformed}

	// Send the crafted batch through the real wire path and wait for its ack.
	statuses := sendWires(t, peer, info, wires, replyOnion)
	for i, st := range statuses {
		if st != want[i] {
			t.Fatalf("report %d acked %v, want %v", i, st, want[i])
		}
	}
	// The two valid reports commit despite their rejected neighbors.
	if got := agentNode.Agent().ReportCount(); got != 2 {
		t.Fatalf("agent stored %d reports, want 2", got)
	}
	as := agentNode.Stats()
	if as.ReportsStored != 2 {
		t.Fatalf("ReportsStored = %d, want 2", as.ReportsStored)
	}
	replay := metric(t, agentNode, "node_ingest_rejected_replay_total")
	key := metric(t, agentNode, "node_ingest_rejected_key_total")
	malformed := metric(t, agentNode, "node_ingest_rejected_malformed_total")
	if replay != 1 || key != 1 || malformed != 1 {
		t.Fatalf("reject counters replay=%d key=%d malformed=%d, want 1/1/1", replay, key, malformed)
	}
	if got := metric(t, agentNode, "node_ingest_store_failed_total"); got != 0 {
		t.Fatalf("node_ingest_store_failed_total = %d: protocol rejects were conflated with store failures", got)
	}
}

// TestLegacyReportRejectsCounted is the single-report regression: a report
// from an unknown key and a replayed report must not bump reportsStored and
// must bump the matching reject counter — previously both were swallowed
// without a trace.
func TestLegacyReportRejectsCounted(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	subject, _ := pkc.NewIdentity(nil)

	// Unknown reporter: never introduced, so the agent holds no key for it.
	if err := peer.reportTransaction(info, subject.ID, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return metric(t, agentNode, "node_ingest_rejected_key_total") == 1 })
	if as := agentNode.Stats(); as.ReportsStored != 0 {
		t.Fatalf("unknown-key report was stored (ReportsStored=%d)", as.ReportsStored)
	}

	// Introduce the peer, then replay one identical signed report.
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		t.Fatal(err)
	}
	self := peer.identity()
	nonce, _ := pkc.NewNonce(nil)
	reportWire := agentdir.SignReport(self, subject.ID, true, nonce)
	var e wire.Encoder
	e.Bytes(self.ID[:])
	e.Bytes(reportWire)
	sealed, err := pkc.Seal(info.AP, e.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := peer.sendThroughOnion(info.Onion, wire.TReport, sealed); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return metric(t, agentNode, "node_ingest_rejected_replay_total") == 1 })
	as := agentNode.Stats()
	if as.ReportsStored != 1 {
		t.Fatalf("ReportsStored = %d, want 1 (first copy only)", as.ReportsStored)
	}
	replay := metric(t, agentNode, "node_ingest_rejected_replay_total")
	key := metric(t, agentNode, "node_ingest_rejected_key_total")
	if replay != 1 || key != 1 {
		t.Fatalf("reject counters replay=%d key=%d, want 1/1", replay, key)
	}
}

// TestReportBatchSaturationSheds stops the agent's verification workers and
// fills its one-slot admission queue: the next batch must come back
// all-saturated — typed backpressure, not a hang or a silent drop — and a
// flusher pass over the same reports, deferred, must keep every saturated
// one queued so acked + rejected + deferred still accounts for the whole
// batch.
func TestReportBatchSaturationSheds(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{VerifyWorkers: 1, VerifyQueue: 1})
	subject, _ := pkc.NewIdentity(nil)
	agentNode.ingest.stop() // no workers: the queue can only fill

	reports := []BatchReport{{Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: false}}
	// First batch occupies the queue slot (nobody drains it), so its ack
	// never arrives; give it a throwaway send with a short wait.
	if _, err := peer.reportBatchOnce(info, reports[:1], replyOnion, 300*time.Millisecond); err != ErrTimeout {
		t.Fatalf("queued batch returned %v, want %v (ack can only time out)", err, ErrTimeout)
	}
	// Second batch finds the queue full and must be shed with an ack.
	statuses, err := peer.ReportBatch(info, reports, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != StatusSaturated {
			t.Fatalf("report %d acked %v, want saturated", i, st)
		}
		if !st.Retryable() {
			t.Fatalf("saturated must be retryable")
		}
	}
	if as := agentNode.Stats(); as.IngestShed != 2 {
		t.Fatalf("IngestShed = %d, want 2", as.IngestShed)
	}

	// Deferred, the same reports meet the same saturated agent through the
	// flusher's delivery loop and stay queued.
	for _, r := range reports {
		peer.deferReport(info, r.Subject, r.Positive)
	}
	if blocked := peer.flushOutbox(); blocked != len(reports) {
		t.Fatalf("flush left %d reports blocked, want %d", blocked, len(reports))
	}
	deferred := peer.Stats().ReportsDeferred
	acked := metric(t, peer, "node_reports_acked_total")
	rejected := metric(t, peer, "node_reports_rejected_total")
	if deferred != 2 || acked != 0 || rejected != 0 {
		t.Fatalf("sender stats deferred=%d acked=%d rejected=%d, want 2/0/0", deferred, acked, rejected)
	}
	if d := peer.OutboxDepth(); d != 2 {
		t.Fatalf("outbox depth = %d, want 2", d)
	}
}

// TestFlushOutboxBatched lets the flusher drain deferred reports as one
// acknowledged batch once a request has given the node a reply route: the
// outbox must empty, every entry retiring on its acked status, and the
// reports must land in the agent's store.
func TestFlushOutboxBatched(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	subject, _ := pkc.NewIdentity(nil)
	const n = 5
	for i := 0; i < n; i++ {
		peer.deferReport(info, subject.ID, i%2 == 0)
	}
	if d := peer.OutboxDepth(); d != n {
		t.Fatalf("outbox depth = %d before flush, want %d", d, n)
	}
	// The request gives the node its reply route, which the flusher waits for.
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return peer.OutboxDepth() == 0 })
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == n })
	acked, lost := metric(t, peer, "node_reports_acked_total"), peer.Stats().ReportsLost
	if acked != n || lost != 0 {
		t.Fatalf("sender stats acked=%d lost=%d, want %d/0", acked, lost, n)
	}
	if as := agentNode.Stats(); as.ReportsStored != n {
		t.Fatalf("agent stored %d, want %d", as.ReportsStored, n)
	}
}

// TestOutboxMemoryFIFOAndBound defers one report past the outbox's cap
// before the node has a reply route: the oldest report is evicted and
// counted lost, and the rest stay queued in order.
func TestOutboxMemoryFIFOAndBound(t *testing.T) {
	nd := fleet(t, 1, 0)[0]
	subject := func(i int) pkc.NodeID { return pkc.NodeID{byte(i), byte(i >> 8)} }
	for i := 0; i <= outboxCap; i++ {
		nd.deferReport(AgentInfo{}, subject(i), true)
	}
	s := nd.Stats()
	if s.ReportsDeferred != outboxCap+1 || s.ReportsLost != 1 {
		t.Fatalf("deferred=%d lost=%d, want %d/1", s.ReportsDeferred, s.ReportsLost, outboxCap+1)
	}
	if d, g := nd.OutboxDepth(), metric(t, nd, "node_outbox_depth"); d != outboxCap || g != outboxCap {
		t.Fatalf("depth=%d gauge=%d, want %d", d, g, outboxCap)
	}
	nd.outboxMu.Lock()
	first, last := nd.outbox[0].subject, nd.outbox[len(nd.outbox)-1].subject
	nd.outboxMu.Unlock()
	if first != subject(1) || last != subject(outboxCap) {
		t.Fatalf("queue runs %x..%x, want the first deferral evicted", first[:2], last[:2])
	}
}

// TestCloseCountsQueuedReportsLost defers reports before the node has a
// reply route, then closes it: the queued reports can never reach their
// agent, so Close counts them lost and empties the depth gauge, and a report
// deferred after Close is lost at once.
func TestCloseCountsQueuedReportsLost(t *testing.T) {
	_, nd, info, _ := batchPair(t, Options{})
	for i := 0; i < 3; i++ {
		nd.deferReport(info, pkc.NodeID{byte(i)}, true)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	s := nd.Stats()
	sent, depth := metric(t, nd, "node_outbox_sent_total"), metric(t, nd, "node_outbox_depth")
	if s.ReportsDeferred != 3 || s.ReportsLost != 3 || sent != 0 || depth != 0 {
		t.Fatalf("after Close deferred=%d lost=%d sent=%d depth=%d, want 3/3/0/0", s.ReportsDeferred, s.ReportsLost, sent, depth)
	}
	nd.deferReport(info, pkc.NodeID{9}, true)
	if lost, d := nd.Stats().ReportsLost, nd.OutboxDepth(); lost != 4 || d != 0 {
		t.Fatalf("deferral after Close: lost=%d depth=%d, want 4/0", lost, d)
	}
}

// TestReportBatchTooLarge bounds the sender API.
func TestReportBatchTooLarge(t *testing.T) {
	peer := fleet(t, 1, 0)[0]
	reports := make([]BatchReport, MaxBatchReports+1)
	if _, err := peer.ReportBatch(AgentInfo{}, reports, nil); err != ErrBatchTooLarge {
		t.Fatalf("got %v, want ErrBatchTooLarge", err)
	}
}

// TestReportBatchOrDeferStopsWhenSaturated pins the saturation-backoff fix:
// once a chunk comes back with an all-saturated ack, a flusher pass must keep
// the remaining chunks queued in one step instead of firing each of them at
// the saturated agent — the hot loop that re-shed every chunk and burned a
// full batch/ack round trip per re-defer.
func TestReportBatchOrDeferStopsWhenSaturated(t *testing.T) {
	agentNode, err := Listen("127.0.0.1:0", Options{
		Agent: true, Timeout: 4 * time.Second, VerifyWorkers: 1, VerifyQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agentNode.Close() })
	relay := fleet(t, 1, 0)[0]
	// An hour-scale flush interval keeps the background flusher out of the
	// one pass the test runs.
	sender, err := Listen("127.0.0.1:0", Options{
		Timeout: 4 * time.Second, OutboxFlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sender.Close() })
	ao, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(ao)
	ro, err := sender.BuildOnion(fetchRoute(t, sender, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)

	agentNode.ingest.stop() // no workers: the queue can only fill
	// Occupy the single admission slot; nobody drains it, so the ack can
	// only time out.
	filler := []BatchReport{{Subject: subject.ID, Positive: true}}
	if _, err := sender.reportBatchOnce(info, filler, ro, 300*time.Millisecond); err != ErrTimeout {
		t.Fatalf("queued batch returned %v, want %v", err, ErrTimeout)
	}

	// Three chunks' worth of reports. Chunk 1 is shed with an all-saturated
	// ack; chunks 2 and 3 must stay queued without touching the wire.
	const n = 3 * defaultReportBatchSize
	for i := 0; i < n; i++ {
		sender.deferReport(info, subject.ID, i%2 == 0)
	}
	if blocked := sender.flushOutbox(); blocked != n {
		t.Fatalf("flush left %d reports blocked, want all %d", blocked, n)
	}
	if got := sender.Stats().ReportsDeferred; got != n {
		t.Fatalf("deferred %d reports, want all %d", got, n)
	}
	if d := sender.OutboxDepth(); d != n {
		t.Fatalf("outbox depth = %d, want all %d queued", d, n)
	}
	if got := agentNode.Stats().IngestShed; got != defaultReportBatchSize {
		t.Fatalf("agent shed %d reports, want %d: the sender must stop after one all-saturated ack", got, defaultReportBatchSize)
	}
}

// TestEmptyReportBatchCountedMalformed pins the decode-layer rejection of a
// zero-report batch: it must be counted as malformed and never occupy a
// verification-pool slot.
func TestEmptyReportBatchCountedMalformed(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	q, err := peer.newRequest(replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	encodeBatchBody(&q.body, nil)
	sealed, err := q.seal(info.AP)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.sendThroughOnion(info.Onion, wire.TReportBatch, sealed.box); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return metric(t, agentNode, "node_ingest_rejected_malformed_total") == 1 })
	if got := metric(t, agentNode, "node_report_batches_total"); got != 0 {
		t.Fatalf("empty batch reached the verification pool (%d batches run)", got)
	}
}

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
func sendWires(t *testing.T, peer *Node, info AgentInfo, wires [][]byte, replyOnion *onion.Onion) batchAck {
	t.Helper()
	q, err := peer.newRequest(replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	encodeBatchBody(&q.body, wires, nil)
	r, err := peer.exchange(info, wire.TReportBatch, &q, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := decodeBatchAck(&r, len(wires))
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestBatchAckRejectsUndefinedStatus crafts acks carrying a status byte past
// the last defined one. Read as a status it would be neither retryable nor an
// admission bounce, so the delivery loop would settle it as a final reject
// and retire the report from the outbox unstored: the ack must be refused as
// a bad answer instead, leaving the report to be delivered again.
func TestBatchAckRejectsUndefinedStatus(t *testing.T) {
	decode := func(raw []byte) (batchAck, error) {
		var e wire.Encoder
		e.Bytes(raw).U64(0)
		return decodeBatchAck(wire.NewDecoder(e.Encode()), len(raw))
	}
	for _, v := range []byte{byte(StatusAdmissionRequired) + 1, 0xff} {
		if ack, err := decode([]byte{byte(StatusStored), v}); !errors.Is(err, ErrBadAgent) {
			t.Fatalf("status byte %d: ack %v accepted (err %v), want ErrBadAgent", v, ack.statuses, err)
		}
	}
	for st := StatusStored; st <= StatusAdmissionRequired; st++ {
		if ack, err := decode([]byte{byte(st)}); err != nil || ack.statuses[0] != st {
			t.Fatalf("defined status %v: %v, %v", st, ack.statuses, err)
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
	statuses := sendWires(t, peer, info, wires, replyOnion).statuses
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
// all-saturated — typed backpressure, not a hang or a silent drop — and
// ReportBatchOrDefer must route every saturated report into the outbox so
// acked + rejected + deferred still accounts for the whole batch.
func TestReportBatchSaturationSheds(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{VerifyWorkers: 1, VerifyQueue: 1})
	subject, _ := pkc.NewIdentity(nil)
	agentNode.ingest.stop() // no workers: the queue can only fill

	reports := []BatchReport{{Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: false}}
	// First batch occupies the queue slot (nobody drains it), so its ack
	// never arrives; give it a throwaway send with a short wait.
	if _, err := peer.reportBatchOnce(info, reports[:1], replyOnion, nil, 300*time.Millisecond); err != ErrTimeout {
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

	// The resilient entry point turns those saturated acks into deferrals.
	if err := peer.ReportBatchOrDefer(nil, info, reports, replyOnion); err != nil {
		t.Fatal(err)
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

// TestReportBatchOrDeferReconciles checks the sender-side ledger on the
// happy path: every report handed to ReportBatchOrDefer is acked as stored,
// counted exactly once, and nothing is deferred or rejected.
func TestReportBatchOrDeferReconciles(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{})
	subject, _ := pkc.NewIdentity(nil)
	const n = 10
	reports := make([]BatchReport, n)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: true}
	}
	if err := peer.ReportBatchOrDefer(nil, info, reports, replyOnion); err != nil {
		t.Fatal(err)
	}
	acked := metric(t, peer, "node_reports_acked_total")
	rejected := metric(t, peer, "node_reports_rejected_total")
	deferred := peer.Stats().ReportsDeferred
	if acked != n || rejected != 0 || deferred != 0 {
		t.Fatalf("sender stats acked=%d rejected=%d deferred=%d, want %d/0/0", acked, rejected, deferred, n)
	}
	if got := agentNode.Agent().ReportCount(); got != n {
		t.Fatalf("agent stored %d, want %d", got, n)
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

// TestReportBatchTooLarge bounds the sender API.
func TestReportBatchTooLarge(t *testing.T) {
	peer := fleet(t, 1, 0)[0]
	reports := make([]BatchReport, MaxBatchReports+1)
	if _, err := peer.ReportBatch(AgentInfo{}, reports, nil); err != ErrBatchTooLarge {
		t.Fatalf("got %v, want ErrBatchTooLarge", err)
	}
}

// TestReportBatchOrDeferStopsWhenSaturated pins the saturation-backoff fix:
// once a chunk comes back with an all-saturated ack, ReportBatchOrDefer must
// defer the remaining chunks in one step instead of firing each of them at
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
	// An hour-scale flush interval keeps the outbox flusher from re-sending
	// deferred reports mid-assertion.
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
	if _, err := sender.reportBatchOnce(info, filler, ro, nil, 300*time.Millisecond); err != ErrTimeout {
		t.Fatalf("queued batch returned %v, want %v", err, ErrTimeout)
	}

	// Three chunks' worth of reports. Chunk 1 is shed with an all-saturated
	// ack; chunks 2 and 3 must be deferred without touching the wire.
	reports := make([]BatchReport, 3*defaultReportBatchSize)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	if err := sender.ReportBatchOrDefer(nil, info, reports, ro); err != nil {
		t.Fatal(err)
	}
	if got := sender.Stats().ReportsDeferred; got != int64(len(reports)) {
		t.Fatalf("deferred %d reports, want all %d", got, len(reports))
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
	encodeBatchBody(&q.body, nil, nil)
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

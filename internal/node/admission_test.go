package node

import (
	"bytes"
	"testing"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
)

// admissionPair builds the standard batched-ingest fixture with the agent's
// sybil-admission gate armed at a test-friendly difficulty (2^8 hashes ≈
// instant to solve, impossible to pass by luck with a zero solution).
func admissionPair(t *testing.T) (agentNode, peer *Node, info AgentInfo, replyOnion *onion.Onion) {
	t.Helper()
	return batchPair(t, Options{AdmissionPoWBits: 8})
}

// TestAdmissionBounceNotStored pins the gate's core promise: a batch from an
// unadmitted identity carrying no proof of work is bounced whole with
// StatusAdmissionRequired — nothing stored, no identity admitted, and the ack
// names the demanded difficulty so the sender can mint a solution.
func TestAdmissionBounceNotStored(t *testing.T) {
	agentNode, peer, info, replyOnion := admissionPair(t)
	subject, _ := pkc.NewIdentity(nil)
	reports := []BatchReport{
		{Subject: subject.ID, Positive: true},
		{Subject: subject.ID, Positive: false},
	}
	ack, err := peer.reportBatchOnce(info, reports, replyOnion, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack.bits != 8 {
		t.Fatalf("ack demanded %d bits, want 8", ack.bits)
	}
	for i, st := range ack.statuses {
		if st != StatusAdmissionRequired {
			t.Fatalf("report %d acked %v, want admission-required", i, st)
		}
	}
	if got := agentNode.Agent().ReportCount(); got != 0 {
		t.Fatalf("agent stored %d reports from an unadmitted identity", got)
	}
	if got := agentNode.AdmittedIdentities(); got != 0 {
		t.Fatalf("agent admitted %d identities without a solution", got)
	}
	if got := metric(t, agentNode, "node_admission_required_total"); got != int64(len(reports)) {
		t.Fatalf("node_admission_required_total = %d, want %d", got, len(reports))
	}
	if got := metric(t, agentNode, "node_report_batches_total"); got != 0 {
		t.Fatalf("unadmitted batch reached the verification pool (%d batches run)", got)
	}
}

// TestAdmissionAutoSolveStored drives the full retry loop: ReportBatch sends
// without a solution, absorbs the admission bounce, mints a proof bound to
// its nodeID, and resends — every report must land, the identity must hold an
// admission, and a second batch must ride the standing admission without
// paying again.
func TestAdmissionAutoSolveStored(t *testing.T) {
	agentNode, peer, info, replyOnion := admissionPair(t)
	subject, _ := pkc.NewIdentity(nil)
	const n = 10
	reports := make([]BatchReport, n)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i%2 == 0}
	}
	statuses, err := peer.ReportBatch(info, reports, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != StatusStored {
			t.Fatalf("report %d acked %v, want stored", i, st)
		}
	}
	if got := agentNode.Agent().ReportCount(); got != n {
		t.Fatalf("agent stored %d reports, want %d", got, n)
	}
	if got := agentNode.AdmittedIdentities(); got != 1 {
		t.Fatalf("agent admitted %d identities, want 1", got)
	}
	solved, work := metric(t, peer, "node_admission_solved_total"), peer.Stats().AdmissionWork
	if solved != 1 || work == 0 {
		t.Fatalf("sender solved=%d work=%d, want 1 solve with nonzero work", solved, work)
	}
	if got := metric(t, agentNode, "node_admission_admitted_total"); got != 1 {
		t.Fatalf("node_admission_admitted_total = %d, want 1", got)
	}

	// Second batch from the now-admitted identity: no fresh solve.
	if _, err := peer.ReportBatch(info, reports[:1], replyOnion); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, peer, "node_admission_solved_total"); got != 1 {
		t.Fatalf("admitted identity re-solved (%d solves, want 1)", got)
	}
	if got := agentNode.Agent().ReportCount(); got != n+1 {
		t.Fatalf("agent stored %d reports, want %d", got, n+1)
	}
}

// TestAdmissionSolveLimitDefers pins the CPU-burn defense: when an agent
// demands a difficulty beyond the sender's solve limit, ReportBatch must not
// mint (no hashes spent) and must surface the admission-required statuses so
// the caller can defer.
func TestAdmissionSolveLimitDefers(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{AdmissionPoWBits: defaultAdmissionSolveLimit + 1})
	subject, _ := pkc.NewIdentity(nil)
	statuses, err := peer.ReportBatch(info, []BatchReport{{Subject: subject.ID, Positive: true}}, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if !allAdmissionRequired(statuses) {
		t.Fatalf("statuses %v, want all admission-required", statuses)
	}
	if got := metric(t, peer, "node_admission_solved_total"); got != 0 {
		t.Fatalf("sender solved %d proofs beyond its limit, want 0", got)
	}
	if got := agentNode.Agent().ReportCount(); got != 0 {
		t.Fatalf("agent stored %d reports, want 0", got)
	}
}

// TestAdmissionMixedBatchAfterAdmit shows the gate composing with per-report
// verdicts: once admitted, a crafted batch mixing a valid report with a
// malformed wire still gets per-report statuses — admission is a batch-level
// gate, not a substitute for report verification.
func TestAdmissionMixedBatchAfterAdmit(t *testing.T) {
	agentNode, peer, info, replyOnion := admissionPair(t)
	subject, _ := pkc.NewIdentity(nil)
	// Admit via the normal path first.
	if _, err := peer.ReportBatch(info, []BatchReport{{Subject: subject.ID, Positive: true}}, replyOnion); err != nil {
		t.Fatal(err)
	}
	self := peer.identity()
	rn, _ := pkc.NewNonce(nil)
	wires := [][]byte{
		agentdir.SignReport(self, subject.ID, true, rn),
		[]byte("not a report"),
	}
	ack := sendWires(t, peer, info, wires, replyOnion)
	want := []ReportStatus{StatusStored, StatusMalformed}
	for i, st := range ack.statuses {
		if st != want[i] {
			t.Fatalf("report %d acked %v, want %v", i, st, want[i])
		}
	}
	if got := agentNode.Agent().ReportCount(); got != 2 {
		t.Fatalf("agent stored %d reports, want 2", got)
	}
}

// TestAdmissionReplayedSolutionRejected pins the spent-solution cache: a
// solution that admitted an identity once cannot re-admit it after
// revocation, while a freshly minted one can.
func TestAdmissionReplayedSolutionRejected(t *testing.T) {
	g := newAdmissionGate(8, 0, 64)
	id, _ := pkc.NewIdentity(nil)
	sol, _, err := pkc.MintAdmission(id.ID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.check(id.ID, sol[:], 1); v != admissionNewlyOK {
		t.Fatalf("first use verdict %d, want newly-ok", v)
	}
	g.forget(id.ID)
	if v := g.check(id.ID, sol[:], 1); v != admissionReplay {
		t.Fatalf("replayed solution verdict %d, want replay", v)
	}
	fresh, _, err := pkc.MintAdmission(id.ID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fresh[:], sol[:]) {
		t.Fatal("mint returned the same solution twice")
	}
	if v := g.check(id.ID, fresh[:], 1); v != admissionNewlyOK {
		t.Fatalf("fresh solution verdict %d, want newly-ok", v)
	}
}

// TestAdmissionRateRevokes pins the per-identity rate accounting: an admitted
// identity that outruns its token bucket loses the admission — sustained
// flooding costs one proof of work per burst, not one ever.
func TestAdmissionRateRevokes(t *testing.T) {
	g := newAdmissionGate(8, 1 /* report/sec */, 10)
	base := time.Now()
	g.now = func() time.Time { return base }
	id, _ := pkc.NewIdentity(nil)
	sol, _, err := pkc.MintAdmission(id.ID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.check(id.ID, sol[:], 8); v != admissionNewlyOK {
		t.Fatalf("verdict %d, want newly-ok", v)
	}
	// 2 tokens left, 8 demanded: over the rate — admission revoked.
	if v := g.check(id.ID, nil, 8); v != admissionThrottled {
		t.Fatalf("verdict %d, want throttled", v)
	}
	if got := g.admittedCount(); got != 0 {
		t.Fatalf("admitted count %d after revocation, want 0", got)
	}
	// The old solution is spent; only fresh work re-admits.
	if v := g.check(id.ID, sol[:], 1); v != admissionReplay {
		t.Fatalf("verdict %d, want replay", v)
	}
	fresh, _, _ := pkc.MintAdmission(id.ID, 8, nil)
	if v := g.check(id.ID, fresh[:], 1); v != admissionNewlyOK {
		t.Fatalf("verdict %d, want newly-ok after fresh solve", v)
	}
	// Idle time refills the bucket: after 10s at 1/sec the full burst is back.
	base = base.Add(10 * time.Second)
	if v := g.check(id.ID, nil, 10); v != admissionOK {
		t.Fatalf("verdict %d, want ok after refill", v)
	}
	if got := g.reportsBy(id.ID); got != 11 {
		t.Fatalf("reportsBy = %d, want 11", got)
	}
}

// TestAdmissionGateEviction pins the FIFO cap: the gate remembers at most cap
// identities, evicting the oldest, and a disabled gate is nil.
func TestAdmissionGateEviction(t *testing.T) {
	if g := newAdmissionGate(0, 0, 0); g != nil {
		t.Fatal("difficulty 0 must disable the gate")
	}
	g := newAdmissionGate(4, 0, 8)
	g.cap = 2
	var first pkc.NodeID
	for i := 0; i < 3; i++ {
		id, _ := pkc.NewIdentity(nil)
		if i == 0 {
			first = id.ID
		}
		sol, _, err := pkc.MintAdmission(id.ID, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := g.check(id.ID, sol[:], 1); v != admissionNewlyOK {
			t.Fatalf("identity %d verdict %d, want newly-ok", i, v)
		}
	}
	if got := g.admittedCount(); got != 2 {
		t.Fatalf("admitted count %d, want cap 2", got)
	}
	if g.reportsBy(first) != 0 {
		t.Fatal("oldest identity survived FIFO eviction")
	}
}

// TestOneWayReportNeedsAdmission closes the §13 bypass on the one-way path:
// a fresh identity registers its key with a trust request, which the gate
// does not cover, then sends unacknowledged TReports. None may be stored —
// the gate never admitted the reporter — and each dropped report counts as
// admission-required.
func TestOneWayReportNeedsAdmission(t *testing.T) {
	agentNode, peer, info, replyOnion := batchPair(t, Options{AdmissionPoWBits: 20})
	subject, _ := pkc.NewIdentity(nil)
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		t.Fatal(err)
	}
	if !agentNode.Agent().KnowsKey(peer.ID()) {
		t.Fatal("the trust request did not register the reporter's key")
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := peer.reportTransaction(info, subject.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every frame was either dropped at the gate or stored.
	waitFor(t, func() bool {
		return metric(t, agentNode, "node_admission_required_total")+int64(agentNode.Agent().ReportCount()) == n
	})
	if got := agentNode.Agent().ReportCount(); got != 0 {
		t.Fatalf("agent stored %d one-way reports from an unadmitted identity", got)
	}
	if got := agentNode.AdmittedIdentities(); got != 0 {
		t.Fatalf("agent admitted %d identities without a solution", got)
	}
}

// TestOneWayReportChargesAdmittedRate: once the acked path has admitted an
// identity, its one-way reports are stored, and each stored one is charged
// to the identity's rate accounting like a batched report.
func TestOneWayReportChargesAdmittedRate(t *testing.T) {
	agentNode, peer, info, replyOnion := admissionPair(t)
	subject, _ := pkc.NewIdentity(nil)
	if _, err := peer.ReportBatch(info, []BatchReport{{Subject: subject.ID, Positive: true}}, replyOnion); err != nil {
		t.Fatal(err)
	}
	bounced := metric(t, agentNode, "node_admission_required_total") // the first batch's, before it solved
	const n = 3
	for i := 0; i < n; i++ {
		if err := peer.reportTransaction(info, subject.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 1+n })
	waitFor(t, func() bool { return agentNode.admission.reportsBy(peer.ID()) == 1+n })
	if got := metric(t, agentNode, "node_admission_required_total"); got != bounced {
		t.Fatalf("an admitted identity's one-way reports bounced %d times", got-bounced)
	}
}

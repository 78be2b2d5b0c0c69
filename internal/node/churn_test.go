package node

import (
	"math"
	"testing"

	"hirep/internal/pkc"
	"hirep/internal/resilience"
)

// TestDeferredReportResignedAfterKeyRotation audits the outbox flush path
// against §3.5 key rotation: a report deferred under the peer's OLD identity
// must be delivered re-signed with the POST-rotation key, and accepted by an
// agent that merged the old nodeID — the deferred payload stores only the
// report parameters, and delivery signs fresh with whatever identity the node
// holds at flush time.
func TestDeferredReportResignedAfterKeyRotation(t *testing.T) {
	a := mkReplNode(t, nil, true, "", nil, 64)
	relay := mkReplNode(t, nil, false, "", nil, 64)
	peer := mkReplNode(t, nil, false, "", nil, 64)

	o, err := a.BuildOnion(fetchRoute(t, a, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	infoA := a.Info(o)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}

	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !book.Add(infoA) {
		t.Fatal("Add failed")
	}
	book.SetQuorum(1)
	peer.AttachBook(book)

	subject, _ := pkc.NewIdentity(nil)

	// Baseline exchange registers the peer's pre-rotation key with the agent
	// (§3.5.2) — the precondition for the rotation to verify later.
	if _, _, err := peer.RequestTrust(infoA, subject.ID, replyOnion); err != nil {
		t.Fatal(err)
	}
	if !a.Agent().KnowsKey(peer.ID()) {
		t.Fatal("baseline exchange did not register the peer's key")
	}

	// Open the agent's breaker by decree (the agent itself stays reachable, so
	// the rotation announcement can still get through): the next report is
	// deferred, signed by nobody yet.
	book.RecordFailure(infoA.ID())
	if !book.RecordFailure(infoA.ID()) {
		t.Fatal("breaker did not trip")
	}
	if err := peer.reportOrDefer(book, infoA, subject.ID, true); err != nil {
		t.Fatal(err)
	}
	if d := peer.OutboxDepth(); d != 1 {
		t.Fatalf("outbox depth %d, want 1", d)
	}
	if got := a.Agent().ReportCount(); got != 0 {
		t.Fatalf("report delivered despite open breaker: count %d", got)
	}

	// Rotate while the report sits deferred. The agent merges old → new: the
	// old key is deleted, so only a report signed with the successor key can
	// be accepted from here on.
	oldID, newID, err := peer.RotateIdentity([]AgentInfo{infoA})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return a.Agent().KnowsKey(newID) && !a.Agent().KnowsKey(oldID)
	})

	// The rotation dropped the reply route the flusher answers through: one
	// request over a fresh onion, signed by the new key, gives it back.
	freshOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(infoA, subject.ID, freshOnion); err != nil {
		t.Fatal(err)
	}

	// Close the breaker and drain: delivery must re-sign with the new
	// identity, and the merged agent must accept it.
	book.RecordSuccess(infoA.ID())
	peer.kickFlush()
	waitFor(t, func() bool { return a.Agent().ReportCount() == 1 })
	waitFor(t, func() bool { return peer.OutboxDepth() == 0 })

	if s := peer.Stats(); s.ReportsLost != 0 || s.ReportsDeferred != 1 {
		t.Fatalf("deferred=%d lost=%d, want 1/0", s.ReportsDeferred, s.ReportsLost)
	}
	if got := peer.Metrics().Snapshot()["node_outbox_sent_total"]; got != 1 {
		t.Fatalf("outbox sent = %d, want 1", got)
	}
	// The report counts toward the subject under the continuous identity.
	v, ok := a.Agent().TrustValue(subject.ID)
	if !ok || math.Abs(float64(v)-2.0/3.0) > 1e-9 {
		t.Fatalf("post-rotation trust = %v (ok=%v), want 2/3", v, ok)
	}
}

// TestLiveFleetSurvivesRelayChurn wires internal/sim's churn model into the
// live fleet: where the simulation sweeps OfflineProb over peers going dark
// mid-protocol, here the report route's relay flaps offline (observable
// refused dials, FaultDrop) in alternating phases while transaction traffic
// keeps flowing. Every report sent during an offline phase must be deferred —
// never lost — and after each revival the deferred/sent counters must
// reconcile exactly: lost == 0 and outbox_sent == deferred.
func TestLiveFleetSurvivesRelayChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("live churn test")
	}
	fd := resilience.NewFaultDialer(nil, 7)
	a := mkReplNode(t, fd, true, t.TempDir(), nil, 64)
	relay := mkReplNode(t, fd, false, "", nil, 64)
	peer := mkReplNode(t, fd, false, "", nil, 64)

	o, err := a.BuildOnion(fetchRoute(t, a, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	infoA := a.Info(o)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}

	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !book.Add(infoA) {
		t.Fatal("Add failed")
	}
	book.SetQuorum(1)
	peer.AttachBook(book)

	subject, _ := pkc.NewIdentity(nil)
	// Baseline: one acked report opens the one-way path the online phases
	// measure (reportOrDefer sends one-way only to an agent that acked).
	baseline := []BatchReport{{Subject: subject.ID, Positive: true}}
	if err := peer.ReportBatchOrDefer(book, infoA, baseline, replyOnion); err != nil {
		t.Fatal(err)
	}

	sent := 1
	const cycles, perPhase = 3, 3
	for cycle := 0; cycle < cycles; cycle++ {
		// Online phase: reports flow live through the relay.
		for i := 0; i < perPhase; i++ {
			if err := peer.reportOrDefer(book, infoA, subject.ID, true); err != nil {
				t.Fatalf("cycle %d live report %d: %v", cycle, i, err)
			}
			sent++
		}
		waitFor(t, func() bool { return a.Agent().ReportCount() == sent })

		// Churn: the relay process dies — established connections reset and
		// new dials fail, the observable failure mode the simulation's
		// OfflineProb models. The first failures trip the agent's breaker
		// (the peer cannot tell a dead relay from a dead agent through an
		// onion) and every report of the phase lands in the outbox.
		fd.SetRule(relay.Addr(), resilience.FaultRule{Mode: resilience.FaultReset})
		for i := 0; i < perPhase; i++ {
			_ = peer.reportOrDefer(book, infoA, subject.ID, true) // send error expected
			sent++
		}
		if got := a.Agent().ReportCount(); got != sent-perPhase {
			t.Fatalf("cycle %d: reports leaked through a dead relay: %d", cycle, got)
		}

		// Revival: the relay returns; probing restores the demoted agent and
		// the flusher drains the backlog.
		fd.Clear(relay.Addr())
		waitFor(t, func() bool {
			if book.BreakerState(infoA.ID()) == resilience.BreakerClosed && book.Len() == 1 {
				return true
			}
			for _, id := range peer.probeBackups(book, replyOnion) {
				if id == infoA.ID() {
					return true
				}
			}
			return false
		})
		waitFor(t, func() bool { return peer.OutboxDepth() == 0 })
		waitFor(t, func() bool { return a.Agent().ReportCount() == sent })
	}

	s := peer.Stats()
	if s.ReportsLost != 0 {
		t.Fatalf("ReportsLost = %d, churn must defer, not drop", s.ReportsLost)
	}
	if want := int64(cycles * perPhase); s.ReportsDeferred != want {
		t.Fatalf("ReportsDeferred = %d, want %d", s.ReportsDeferred, want)
	}
	snap := peer.Metrics().Snapshot()
	if got := snap["node_outbox_sent_total"]; int64(got) != s.ReportsDeferred {
		t.Fatalf("outbox_sent %d != deferred %d: counters do not reconcile", got, s.ReportsDeferred)
	}
	if got := a.Agent().ReportCount(); got != sent {
		t.Fatalf("agent stored %d, fleet sent %d", got, sent)
	}
}

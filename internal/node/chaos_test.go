package node

import (
	"testing"

	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/trust"
)

// TestChaosFleetSurvivesAgentOutage is the resilience capstone: a live fleet
// (3 trusted agents + 1 standby backup + peer + relays) runs behind one
// shared fault-injection dialer. One agent is black-holed — its traffic is
// silently swallowed, the worst failure mode for an onion-routed protocol
// because sends keep "succeeding" — and the fleet must degrade, not die:
//
//   - evaluations keep answering on a 2-of-3 quorum while the dead agent
//     times out;
//   - the dead agent's circuit breaker opens, it is demoted, and the standby
//     backup is promoted in its place (§3.4.3, §3.6);
//   - the outcome report owed to the dead agent is deferred into the durable
//     outbox instead of being lost;
//   - after the agent is revived, probeBackups closes its breaker and
//     restores it, and the outbox flusher drains the deferred report into the
//     revived agent's store.
func TestChaosFleetSurvivesAgentOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos test")
	}
	fd := resilience.NewFaultDialer(nil, 42)
	fl, err := StartFleet(FleetConfig{Agents: 4, Relays: 2, Peers: 1, Faults: fd})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	a0, a1, a2, standby := fl.Agents[0], fl.Agents[1], fl.Agents[2], fl.Agents[3]
	peer := fl.Peers[0]

	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	info0, infoS := infos[0], infos[3]

	book, err := fl.Book(infos, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	peer.AttachBook(book)

	subject, _ := pkc.NewIdentity(nil)
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: all three agents answer (and register the peer's key, which
	// the deferred report needs later).
	_, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if len(perAgent) != 3 {
		t.Fatalf("healthy fleet: %d answers", len(perAgent))
	}

	// Kill a0 the silent way: every dial to it gets a black-hole connection.
	// Onion forwards to it now vanish without any error signal.
	if err := fl.BlackHole(a0); err != nil {
		t.Fatal(err)
	}

	// Two degraded evaluations: quorum 2-of-3 keeps them succeeding, and the
	// second failure trips a0's breaker (threshold 2), demotes it, and
	// promotes the standby.
	for i := 0; i < 2; i++ {
		_, perAgent, err = peer.EvaluateSubject(book, subject.ID, replyOnion)
		if err != nil {
			t.Fatalf("degraded evaluation %d: %v", i, err)
		}
		if len(perAgent) != 2 {
			t.Fatalf("degraded evaluation %d: %d answers, want 2", i, len(perAgent))
		}
		if _, ok := perAgent[info0.ID()]; ok {
			t.Fatalf("degraded evaluation %d: black-holed agent answered", i)
		}
	}
	if st := book.BreakerState(info0.ID()); st != resilience.BreakerOpen {
		t.Fatalf("a0 breaker %v, want open", st)
	}
	snap := peer.Metrics().Snapshot()
	if snap["node_breaker_open_total"] < 1 {
		t.Fatalf("breaker-open counter %d", snap["node_breaker_open_total"])
	}
	if snap["node_failover_total"] < 1 {
		t.Fatalf("failover counter %d", snap["node_failover_total"])
	}
	// The standby took a0's slot; a0 moved to the backup cache.
	ids := map[pkc.NodeID]bool{}
	for _, a := range book.Agents() {
		ids[a.ID()] = true
	}
	if ids[info0.ID()] || !ids[infoS.ID()] || book.Len() != 3 {
		t.Fatalf("failover did not promote the standby: %v", book.Agents())
	}

	// The promoted standby now serves evaluations (this also registers the
	// peer's key with it, which its report acceptance requires, §3.5.2).
	_, perAgent, err = peer.EvaluateSubject(book, subject.ID, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if len(perAgent) != 3 {
		t.Fatalf("post-failover evaluation: %d answers, want 3", len(perAgent))
	}
	if _, ok := perAgent[infoS.ID()]; !ok {
		t.Fatal("promoted standby did not answer")
	}

	// Complete the transaction as if the full original fleet had evaluated
	// it: a0 answered before the outage, so it is owed the outcome report —
	// which must be deferred to the outbox (its breaker is open), not
	// silently dropped.
	full := map[pkc.NodeID]trust.Value{}
	for id, v := range perAgent {
		full[id] = v
	}
	full[info0.ID()] = 0.5
	peer.CompleteTransaction(book, subject.ID, true, full)
	if d := peer.OutboxDepth(); d < 1 {
		t.Fatalf("outbox depth %d, want >= 1 deferred report", d)
	}
	if s := peer.Stats(); s.ReportsDeferred < 1 {
		t.Fatalf("ReportsDeferred = %d", s.ReportsDeferred)
	}
	// The three healthy agents each got the report live.
	waitFor(t, func() bool {
		return a1.Agent().ReportCount() >= 1 && a2.Agent().ReportCount() >= 1 &&
			standby.Agent().ReportCount() >= 1
	})
	if got := a0.Agent().ReportCount(); got != 0 {
		t.Fatalf("black-holed agent stored %d reports", got)
	}

	// Revive a0 and probe the backups: once the breaker cooldown elapses the
	// probe succeeds, the breaker closes, a0 is restored to the book, and the
	// flusher drains the deferred report into a0's store.
	if err := fl.revive(a0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, id := range peer.probeBackups(book, replyOnion) {
			if id == info0.ID() {
				return true
			}
		}
		return false
	})
	if st := book.BreakerState(info0.ID()); st != resilience.BreakerClosed {
		t.Fatalf("revived a0 breaker %v, want closed", st)
	}
	if book.Len() != 4 {
		t.Fatalf("book size %d after restore, want 4", book.Len())
	}
	waitFor(t, func() bool { return peer.OutboxDepth() == 0 })
	waitFor(t, func() bool { return a0.Agent().ReportCount() >= 1 })
	snap = peer.Metrics().Snapshot()
	if snap["node_outbox_sent_total"] < 1 {
		t.Fatalf("outbox-sent counter %d", snap["node_outbox_sent_total"])
	}
	if snap["node_breaker_close_total"] < 1 {
		t.Fatalf("breaker-close counter %d", snap["node_breaker_close_total"])
	}
	if s := peer.Stats(); s.ReportsLost != 0 {
		t.Fatalf("ReportsLost = %d, nothing should have been dropped", s.ReportsLost)
	}
}

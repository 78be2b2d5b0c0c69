package node

import (
	"testing"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/resilience"
)

// liveAgentInfo builds a valid descriptor for tests: an agent node published
// through one relay.
func liveAgentInfo(t *testing.T, agent *Node, relay *Node) AgentInfo {
	t.Helper()
	o, err := agent.BuildOnion(fetchRoute(t, agent, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	return agent.Info(o)
}

func TestAgentBookValidation(t *testing.T) {
	if _, err := NewAgentBook(0, 0.3, 0.4); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewAgentBook(5, 0, 0.4); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewAgentBook(5, 0.3, 1); err == nil {
		t.Error("threshold 1 accepted")
	}
}

func TestAgentBookAddVerifiesDescriptors(t *testing.T) {
	nodes := fleet(t, 3, 2)
	book, err := NewAgentBook(5, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	info := liveAgentInfo(t, nodes[0], nodes[2])
	if !book.Add(info) {
		t.Fatal("valid descriptor rejected")
	}
	if book.Add(info) {
		t.Fatal("duplicate accepted")
	}
	// Forged SP must fail onion verification.
	forged := liveAgentInfo(t, nodes[1], nodes[2])
	other, _ := pkc.NewIdentity(nil)
	forged.SP = other.Sign.Public
	if book.Add(forged) {
		t.Fatal("forged descriptor accepted")
	}
	if book.Len() != 1 {
		t.Fatalf("book size %d", book.Len())
	}
}

func TestAgentBookCapacityAndExpertise(t *testing.T) {
	nodes := fleet(t, 4, 3)
	book, _ := NewAgentBook(2, 0.5, 0.4)
	a := liveAgentInfo(t, nodes[0], nodes[3])
	b := liveAgentInfo(t, nodes[1], nodes[3])
	c := liveAgentInfo(t, nodes[2], nodes[3])
	if !book.Add(a) || !book.Add(b) {
		t.Fatal("adds failed")
	}
	if book.Add(c) {
		t.Fatal("over-capacity add accepted")
	}
	if e, ok := book.Expertise(a.ID()); !ok || e != 1 {
		t.Fatalf("initial expertise %v", e)
	}
	// One inconsistent observation at alpha=0.5: 0.5, still >= 0.4.
	if removed := book.RecordOutcome(a.ID(), false); removed {
		t.Fatal("removed too early")
	}
	// Second: 0.25 < 0.4 -> removed and banned.
	if removed := book.RecordOutcome(a.ID(), false); !removed {
		t.Fatal("not removed at threshold")
	}
	if book.Add(a) {
		t.Fatal("banned agent re-added")
	}
	// Ordering: remaining agent b first.
	if agents := book.Agents(); len(agents) != 1 || agents[0].ID() != b.ID() {
		t.Fatalf("agents %v", agents)
	}
}

func TestAgentBookDemoteRestore(t *testing.T) {
	nodes := fleet(t, 2, 1)
	book, _ := NewAgentBook(3, 0.3, 0.4)
	info := liveAgentInfo(t, nodes[0], nodes[1])
	book.Add(info)
	book.Demote(info.ID())
	if book.Len() != 0 {
		t.Fatal("demote did not remove")
	}
	if got := book.Backups(); len(got) != 1 || got[0] != info.ID() {
		t.Fatalf("backups %v", got)
	}
	if !book.Restore(info.ID()) {
		t.Fatal("restore failed")
	}
	if book.Len() != 1 || len(book.Backups()) != 0 {
		t.Fatal("restore left inconsistent state")
	}
	if book.Restore(info.ID()) {
		t.Fatal("double restore succeeded")
	}
}

func TestEvaluateSubjectAggregates(t *testing.T) {
	// Two live agents with different report histories; the book aggregates.
	nodes := fleet(t, 5, 2)
	agentA, agentB, peer := nodes[0], nodes[1], nodes[2]
	relays := nodes[3:5]
	infoA := liveAgentInfo(t, agentA, relays[0])
	infoB := liveAgentInfo(t, agentB, relays[1])
	book, _ := NewAgentBook(4, 0.3, 0.4)
	if !book.Add(infoA) || !book.Add(infoB) {
		t.Fatal("adds failed")
	}
	subject, _ := pkc.NewIdentity(nil)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	// Introduce the peer, then report: A hears positives, B hears negatives.
	for _, info := range []AgentInfo{infoA, infoB} {
		if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
			t.Fatal(err)
		}
	}
	for _, positive := range []bool{true, false} {
		info, reports := infoA, make([]BatchReport, 3)
		if !positive {
			info = infoB
		}
		for i := range reports {
			reports[i] = BatchReport{Subject: subject.ID, Positive: positive}
		}
		if _, err := peer.ReportBatch(info, reports, replyOnion); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		return agentA.Agent().ReportCount() == 3 && agentB.Agent().ReportCount() == 3
	})
	v, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if len(perAgent) != 2 {
		t.Fatalf("%d agents answered", len(perAgent))
	}
	// A says (3+1)/(3+2)=0.8, B says 0.2; equal expertise -> 0.5.
	if v < 0.4 || v > 0.6 {
		t.Fatalf("aggregate %v, want ~0.5", v)
	}
	// Complete the transaction with a good outcome: A consistent, B not.
	removed := peer.CompleteTransaction(book, subject.ID, true, perAgent)
	if len(removed) != 0 {
		t.Fatalf("removed %v after one observation at alpha 0.3", removed)
	}
	ea, _ := book.Expertise(infoA.ID())
	eb, _ := book.Expertise(infoB.ID())
	if ea <= eb {
		t.Fatalf("consistent agent not preferred: A=%.2f B=%.2f", ea, eb)
	}
}

func TestEvaluateSubjectDemotesUnresponsive(t *testing.T) {
	nodes := fleet(t, 4, 1)
	agentNode, peer := nodes[0], nodes[1]
	relays := nodes[2:4]
	info := liveAgentInfo(t, agentNode, relays[0])
	book, _ := NewAgentBook(4, 0.3, 0.4)
	book.Add(info)
	// A second "agent" that is actually a plain relay: requests to it vanish.
	ghost := liveAgentInfo(t, relays[1], relays[0])
	book.Add(ghost)
	// Demotion is now the circuit breaker's call (EvaluateSubject feeds it);
	// threshold 1 preserves this test's demote-on-first-miss setup.
	book.SetBreakerConfig(resilience.BreakerConfig{Threshold: 1})
	subject, _ := pkc.NewIdentity(nil)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	peer.SetTimeout(700 * time.Millisecond)
	v, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := perAgent[ghost.ID()]; ok {
		t.Fatal("non-agent answered")
	}
	_ = v
	peer.CompleteTransaction(book, subject.ID, true, perAgent)
	// The ghost must have been demoted to the backup cache.
	if book.Len() != 1 {
		t.Fatalf("book size %d after demotion", book.Len())
	}
	found := false
	for _, id := range book.Backups() {
		if id == ghost.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("unresponsive agent not in backup cache")
	}
}

// TestAbstentionIsNotAWrongAnswer: an agent with no reports about a subject
// abstains. Its answer counts toward quorum but is neither aggregated nor
// scored, so back-to-back transactions on a fresh subject cost no agent its
// expertise. Scored as a prediction of a bad outcome, the 0.5 prior would
// take both agents' expertise 1 → 0.70 → 0.49 → 0.34, below the 0.4
// threshold, and the fourth evaluation would find an empty book.
func TestAbstentionIsNotAWrongAnswer(t *testing.T) {
	fl, err := StartFleet(FleetConfig{Agents: 2, Relays: 1, Peers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	peer := fl.Peers[0]
	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	book, err := fl.Book(infos, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	peer.AttachBook(book)
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)

	for round := 0; round < 3; round++ {
		v, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 && (len(perAgent) != 0 || v != 0.5) {
			t.Fatalf("fresh subject: aggregate %v over %d opinions, want the 0.5 prior over none", v, len(perAgent))
		}
		if removed := peer.CompleteTransaction(book, subject.ID, true, perAgent); len(removed) != 0 {
			t.Fatalf("round %d removed %v", round, removed)
		}
	}
	if book.Len() != 2 {
		t.Fatalf("book holds %d agents after three good transactions, want 2", book.Len())
	}
	if _, _, err := peer.EvaluateSubject(book, subject.ID, replyOnion); err != nil {
		t.Fatalf("fourth evaluation: %v", err)
	}
}

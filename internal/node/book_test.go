package node

import (
	"math"
	"testing"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/proof"
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

// TestBookDepartureClearsAgentState is the regression for stale per-agent
// state: an ID that fully leaves the book (dropped on demotion) must not leak
// its breaker position to a later re-add under the same ID. Demotion INTO the
// backup cache, by contrast, must keep breaker state — promotion decisions
// depend on it.
func TestAgentBookDemoteRestore(t *testing.T) {
	nodes := fleet(t, 2, 1)
	book, _ := NewAgentBook(3, 0.3, 0.4)
	info := liveAgentInfo(t, nodes[0], nodes[1])
	book.Add(info)
	if !book.Demote(info.ID()) {
		t.Fatal("demote did not find the agent")
	}
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

func TestBookDepartureClearsAgentState(t *testing.T) {
	nodes := fleet(t, 2, 1)
	relay := nodes[1]
	book, _ := NewAgentBook(3, 0.5, 0)
	book.SetBreakerConfig(resilience.BreakerConfig{Threshold: 1})
	info := liveAgentInfo(t, nodes[0], relay)
	id := info.ID()
	book.Add(info)

	trip := func() {
		book.RecordFailure(id)
		if book.BreakerState(id) != resilience.BreakerOpen {
			t.Fatal("breaker not tripped")
		}
	}

	// Demotion into the backup cache KEEPS breaker state.
	trip()
	book.Demote(id)
	if book.BreakerState(id) != resilience.BreakerOpen {
		t.Fatal("demotion into backups cleared breaker state")
	}
	book.Restore(id)

	// Dropped outright (expertise driven to ~0 with threshold 0): cleared.
	for i := 0; i < 30; i++ {
		book.RecordOutcome(id, false)
	}
	book.Demote(id) // expertise ~0 -> dropped, not cached
	if got := book.Backups(); len(got) != 0 {
		t.Fatalf("zero-expertise agent cached as backup: %v", got)
	}
	if book.BreakerState(id) != resilience.BreakerClosed {
		t.Fatal("drop on demotion kept stale breaker state")
	}

	// Re-add starts with a clean slate.
	if !book.Add(info) {
		t.Fatal("re-add after drop failed")
	}
	if e, _ := book.Expertise(id); e != 1 {
		t.Fatalf("re-added agent starts at expertise %v, want 1", e)
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
	if agents := book.Agents(); len(agents) != 2 || agents[0].ID() != infoA.ID() {
		t.Fatalf("agents %v, want the more expert A first", agents)
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

// TestExpertiseRemovesLyingAgent is §3.4.3's defence against a lying agent,
// end to end: answers that do not predict outcomes lose expertise, and the
// agent is dropped. A colluding reporter files positive reports about a bad
// subject at one agent only, so that agent's bare answer and its Matching
// proof bundle both call the subject good. Every transaction on the subject
// turns out bad, so at α 0.3 the agent's expertise goes 1 → 0.70 → 0.49 →
// 0.34, below the 0.4 threshold, and the third CompleteTransaction removes
// it. The standby in the backup cache takes its slot, so the book holds 3
// agents again; the two honest agents stay, every evaluation meets quorum,
// and the removed agent is banned for good.
func TestExpertiseRemovesLyingAgent(t *testing.T) {
	fl, err := StartFleet(FleetConfig{
		Agents: 4, Relays: 1, Peers: 2,
		AgentOpts: func(_ int, o *Options) { o.EvidenceCap = 64 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	peer, colluder := fl.Peers[0], fl.Peers[1]
	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	book, err := fl.Book(infos, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	peer.AttachBook(book)
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	colluderOnion, err := fl.ReplyOnion(colluder)
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)
	liar, standby := infos[0], infos[3]

	// Every agent hears two honest negative reports; the liar also hears the
	// colluder's six positive ones.
	honest := []BatchReport{{Subject: subject.ID}, {Subject: subject.ID}}
	for _, info := range infos {
		if _, err := peer.ReportBatch(info, honest, replyOnion); err != nil {
			t.Fatal(err)
		}
	}
	collusion := make([]BatchReport, 6)
	for i := range collusion {
		collusion[i] = BatchReport{Subject: subject.ID, Positive: true}
	}
	if _, err := colluder.ReportBatch(liar, collusion, colluderOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fl.Agents[0].Agent().ReportCount() == len(honest)+len(collusion) })

	// The liar's bare answer and its proof bundle agree: the subject is good.
	// The bundle is honest about the liar's own store, so it verifies.
	if v, hasData, err := peer.RequestTrust(liar, subject.ID, replyOnion); err != nil || !hasData || v <= 0.5 {
		t.Fatalf("liar's bare answer: %v (data %v, err %v), want above 0.5", v, hasData, err)
	}
	b, res, err := peer.RequestTrustProven(liar, subject.ID, replyOnion)
	if err != nil || res.Verdict != proof.Matching || b.Pos <= b.Neg {
		t.Fatalf("liar's bundle: %+v verdict %v err %v, want a Matching bundle calling the subject good", b, res.Verdict, err)
	}

	want := []float64{0.7, 0.49}
	for tx := 1; ; tx++ {
		_, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
		if err != nil {
			t.Fatalf("transaction %d: %v", tx, err)
		}
		if _, ok := perAgent[liar.ID()]; !ok {
			t.Fatalf("transaction %d: the liar gave no opinion", tx)
		}
		removed := peer.CompleteTransaction(book, subject.ID, false, perAgent)
		if len(removed) == 1 && removed[0] == liar.ID() {
			if tx != 3 {
				t.Fatalf("liar removed after %d transactions, want 3", tx)
			}
			break
		}
		if len(removed) != 0 || tx == 3 {
			t.Fatalf("transaction %d removed %v", tx, removed)
		}
		if e, _ := book.Expertise(liar.ID()); math.Abs(e-want[tx-1]) > 1e-9 {
			t.Fatalf("transaction %d: liar's expertise %v, want %v", tx, e, want[tx-1])
		}
	}

	if book.Len() != 3 || len(book.Backups()) != 0 {
		t.Fatalf("book holds %d agents and %d backups, want the 2 honest ones and the promoted standby", book.Len(), len(book.Backups()))
	}
	if _, ok := book.Expertise(standby.ID()); !ok {
		t.Fatal("the standby was not promoted into the liar's slot")
	}
	for _, info := range infos[1:] {
		if e, ok := book.Expertise(info.ID()); !ok || e != 1 {
			t.Fatalf("honest agent %v: expertise %v, in book %v", info.ID(), e, ok)
		}
	}
	if _, _, err := peer.EvaluateSubject(book, subject.ID, replyOnion); err != nil {
		t.Fatalf("evaluation after the removal: %v", err)
	}
	if book.Add(liar) {
		t.Fatal("the removed liar was added back")
	}
}

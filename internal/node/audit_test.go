package node

import (
	"errors"
	"testing"
	"time"

	"hirep/internal/audit"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// TestBookQuarantineStateMachine walks the §15 lifecycle on a bare book:
// suspect strikes accumulate to quarantine at the threshold, only suspects
// rehabilitate, quarantined agents vanish from selection, and eviction is
// terminal.
func TestBookQuarantineStateMachine(t *testing.T) {
	nodes := fleet(t, 3, 2)
	book, _ := NewAgentBook(3, 0.3, 0.4)
	a := liveAgentInfo(t, nodes[0], nodes[2])
	b := liveAgentInfo(t, nodes[1], nodes[2])
	book.Add(a)
	book.Add(b)

	if h := book.Health(a.ID()); h != Healthy {
		t.Fatalf("fresh agent health %v", h)
	}
	if h := book.Health(pkc.NodeID{0xff}); h != HealthUnknown {
		t.Fatalf("untracked health %v", h)
	}

	// One strike: suspect, still selectable.
	if h, q, _ := book.MarkSuspect(a.ID()); h != Suspect || q {
		t.Fatalf("first strike: health %v quarantined %v", h, q)
	}
	if len(book.Agents()) != 2 {
		t.Fatal("suspect removed from selection")
	}

	// Matching re-audit rehabilitates a suspect and resets its strikes.
	if !book.Rehabilitate(a.ID()) {
		t.Fatal("suspect not rehabilitated")
	}
	if h := book.Health(a.ID()); h != Healthy {
		t.Fatalf("rehabilitated health %v", h)
	}
	if book.Rehabilitate(a.ID()) {
		t.Fatal("healthy agent rehabilitated again")
	}

	// Strikes start over after rehabilitation: a full threshold of fresh
	// ones quarantines.
	for i := 1; i < defaultAuditQuarantineThreshold; i++ {
		if h, q, _ := book.MarkSuspect(a.ID()); h != Suspect || q {
			t.Fatalf("strike %d: health %v quarantined %v", i, h, q)
		}
	}
	h, q, wasActive := book.MarkSuspect(a.ID())
	if h != Quarantined || !q || !wasActive {
		t.Fatalf("threshold strike: health %v quarantined %v active %v", h, q, wasActive)
	}
	// Quarantined: out of every selection path, retained for probation.
	for _, info := range book.Agents() {
		if info.ID() == a.ID() {
			t.Fatal("quarantined agent still selectable")
		}
	}
	if book.Add(a) || book.AddBackup(a) {
		t.Fatal("quarantined agent re-added")
	}
	if _, ok := book.QuarantinedInfo(a.ID()); !ok {
		t.Fatal("quarantined descriptor lost")
	}
	if got := book.Quarantined(); len(got) != 1 || got[0] != a.ID() {
		t.Fatalf("quarantine set %v", got)
	}
	// Quarantine does not rehabilitate, and further strikes are no-ops.
	if book.Rehabilitate(a.ID()) {
		t.Fatal("quarantined agent rehabilitated")
	}
	if _, q, _ := book.MarkSuspect(a.ID()); q {
		t.Fatal("re-quarantined")
	}

	// Eviction is terminal: removed everywhere, banned.
	if !book.Evict(a.ID()) {
		t.Fatal("evict failed")
	}
	if h := book.Health(a.ID()); h != Evicted {
		t.Fatalf("evicted health %v", h)
	}
	if book.Add(a) {
		t.Fatal("evicted agent re-added")
	}
	if book.Evict(a.ID()) {
		t.Fatal("double evict reported success")
	}

	// Direct quarantine (verified evidence) bypasses the strike ladder.
	if q, active := book.Quarantine(b.ID()); !q || !active {
		t.Fatalf("direct quarantine: %v %v", q, active)
	}
}

// TestBookDepartureClearsAgentState is the regression for stale per-agent
// state: an ID that fully leaves the book (evicted, banned, or dropped on
// demotion) must not leak its breaker position to a later re-add under the
// same ID. Demotion INTO the backup cache, by contrast, must keep breaker
// state — promotion decisions depend on it.
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

	// Re-add starts with a clean slate; eviction clears it again.
	if !book.Add(info) {
		t.Fatal("re-add after drop failed")
	}
	trip()
	book.Evict(id)
	if book.BreakerState(id) != resilience.BreakerClosed {
		t.Fatal("eviction kept stale breaker state")
	}
}

// auditFleet is the self-healing e2e topology: three evidence-retaining
// agents (two active in the book, one standby), an auditing peer, an
// observing peer, and two relays, all live TCP.
func auditFleet(t *testing.T) (agents []*Node, auditorPeer, observer *Node, relays []*Node) {
	t.Helper()
	mk := func(opts Options) *Node {
		opts.Timeout = 5 * time.Second
		nd, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	for i := 0; i < 3; i++ {
		agents = append(agents, mk(Options{Agent: true, EvidenceCap: 64}))
	}
	auditorPeer = mk(Options{})
	observer = mk(Options{})
	relays = []*Node{mk(Options{}), mk(Options{})}
	return agents, auditorPeer, observer, relays
}

func auditBook(t *testing.T, infos []AgentInfo) *AgentBook {
	t.Helper()
	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !book.Add(infos[0]) || !book.Add(infos[1]) || !book.AddBackup(infos[2]) {
		t.Fatal("book setup failed")
	}
	return book
}

// TestAuditSelfHealingEndToEnd is the §15 story over live TCP: a fleet with
// one tampering agent is audited; the auditor's sweep catches the provable
// lie, quarantines the liar, promotes the standby, and gossips a signed
// advisory; the observing peer independently re-verifies the embedded bundle
// and quarantines on its own book; a probation probe catches a second
// distinct lie and both nodes evict; trust queries keep answering throughout.
func TestAuditSelfHealingEndToEnd(t *testing.T) {
	agents, auditorPeer, observer, relays := auditFleet(t)
	infos := make([]AgentInfo, len(agents))
	for i, a := range agents {
		infos[i] = liveAgentInfo(t, a, relays[i%2])
	}
	liar := agents[0]
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, auditorPeer, infos[0], subject.ID, 3, liar)

	auditorBook := auditBook(t, infos)
	observerBook := auditBook(t, infos)
	auditorPeer.SetNeighbors([]string{observer.Addr()})
	observer.SetNeighbors([]string{auditorPeer.Addr()})
	observer.AttachBook(observerBook)

	auditorOnion, err := auditorPeer.BuildOnion(fetchRoute(t, auditorPeer, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := auditorPeer.StartAuditor(auditorBook, auditorOnion); err != nil {
		t.Fatal(err)
	}
	if err := auditorPeer.StartAuditor(auditorBook, auditorOnion); err == nil {
		t.Fatal("second StartAuditor accepted")
	}
	auditorPeer.NoteAuditSubjects(subject.ID)

	// The liar signs bundles claiming positives its evidence does not back.
	liar.SetProofTamper(func(b *proof.Bundle) { b.Pos += 2 })

	// Sweep 1: the lie is caught (as primary or as cross-check second — both
	// paths end in a verified advisory), the liar is quarantined, the standby
	// promoted into the vacated active slot.
	if err := auditorPeer.AuditSweep(); err != nil {
		t.Fatal(err)
	}
	if h := auditorBook.Health(liar.ID()); h != Quarantined {
		t.Fatalf("liar health after sweep 1: %v", h)
	}
	for _, info := range auditorBook.Agents() {
		if info.ID() == liar.ID() {
			t.Fatal("quarantined liar still in quorum selection")
		}
	}
	found := false
	for _, info := range auditorBook.Agents() {
		found = found || info.ID() == infos[2].ID()
	}
	if !found {
		t.Fatal("standby not promoted into the vacated slot")
	}

	// The advisory gossips to the observer, which re-verifies the embedded
	// bundle on its own and quarantines (plus promotes) on its own book.
	waitFor(t, func() bool {
		return observer.Stats().AdvisoriesAccepted >= 1 &&
			observerBook.Health(liar.ID()) == Quarantined
	})
	recs := observer.Advisories()
	if len(recs) == 0 || recs[0].Accused != liar.ID() || recs[0].Auditor != auditorPeer.ID() {
		t.Fatalf("observer advisory log: %+v", recs)
	}

	// Sweep 2: the probation probe catches a second, distinct lying bundle
	// (a different subject, hence a different digest) — eviction, gossiped
	// and applied at the observer too.
	if err := auditorPeer.AuditSweep(); err != nil {
		t.Fatal(err)
	}
	if h := auditorBook.Health(liar.ID()); h != Evicted {
		t.Fatalf("liar health after sweep 2: %v", h)
	}
	waitFor(t, func() bool { return observerBook.Health(liar.ID()) == Evicted })

	// The trust plane healed around the liar: queries keep answering from
	// the honest agents (promoted standby included).
	if _, perAgent, err := auditorPeer.EvaluateSubject(auditorBook, subject.ID, auditorOnion); err != nil {
		t.Fatalf("evaluation after eviction: %v", err)
	} else if _, asked := perAgent[liar.ID()]; asked {
		t.Fatal("evicted liar answered an evaluation")
	}

	sweeps := auditorPeer.Stats().AuditSweeps
	issued := metric(t, auditorPeer, "node_advisories_issued_total")
	quarantined := metric(t, auditorPeer, "node_agents_quarantined_total")
	evicted := metric(t, auditorPeer, "node_agents_evicted_total")
	if sweeps != 2 || issued < 2 || quarantined < 1 || evicted < 1 {
		t.Fatalf("auditor: sweeps=%d issued=%d quarantined=%d evicted=%d", sweeps, issued, quarantined, evicted)
	}
	if got := metric(t, observer, "node_agents_evicted_total"); got < 1 {
		t.Fatalf("observer evicted %d agents", got)
	}
}

// TestFabricatedAdvisoryNeverActedOn is the framing-resistance e2e: gossip
// carrying accusations without a provable lie — garbage bytes, a bare
// accusation with a junk bundle, an exonerating (Matching) bundle — is
// rejected and counted at the receiver, and the accused agent's standing is
// untouched. A replayed advisory is counted as a duplicate, not re-processed.
func TestFabricatedAdvisoryNeverActedOn(t *testing.T) {
	nodes := fleet(t, 4, 1)
	agentNode, victim, attacker, relay := nodes[0], nodes[1], nodes[2], nodes[3]
	info := liveAgentInfo(t, agentNode, relay)
	book, _ := NewAgentBook(3, 0.3, 0.4)
	book.Add(info)
	victimOnion, err := victim.BuildOnion(fetchRoute(t, victim, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.StartAuditor(book, victimOnion); err != nil {
		t.Fatal(err)
	}

	send := func(payload []byte) {
		t.Helper()
		rel, err := attacker.FetchAnonKey(victim.Addr())
		if err != nil {
			t.Fatal(err)
		}
		o, err := onion.BuildExit(attacker.identity(), rel, attacker.nextSeq(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := pkc.Seal(rel.AP, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := attacker.sendThroughOnion(o, wire.TAdvisory, sealed); err != nil {
			t.Fatal(err)
		}
	}

	// Undecodable gossip.
	send([]byte("not an advisory"))
	// A signed bare accusation: valid codec, junk bundle.
	bare := &audit.Advisory{Accused: info.ID(), Reason: "trust me", Issued: 1, Bundle: []byte("junk")}
	bare.Sign(attacker.identity())
	send(bare.Encode())
	// An authentic advisory whose own evidence exonerates the accused.
	exon := &proof.Bundle{Subject: pkc.DeriveNodeID(attacker.identity().Sign.Public), Epoch: 1}
	exon.Sign(agentNode.identity())
	adv := &audit.Advisory{Accused: info.ID(), Reason: "framed", Issued: 2, Bundle: exon.Encode()}
	adv.Sign(attacker.identity())
	send(adv.Encode())

	waitFor(t, func() bool { return metric(t, victim, "node_advisories_rejected_total") >= 3 })

	// Replay of the bare accusation: deduplicated before any re-processing.
	send(bare.Encode())
	waitFor(t, func() bool { return metric(t, victim, "node_advisories_duplicate_total") >= 1 })

	if got := victim.Stats().AdvisoriesAccepted; got != 0 || len(victim.Advisories()) != 0 {
		t.Fatalf("fabricated advisory accepted (%d accepted)", got)
	}
	if h := book.Health(info.ID()); h != Healthy {
		t.Fatalf("framed agent health %v, want Healthy", h)
	}
	if len(book.Agents()) != 1 {
		t.Fatal("framed agent lost its slot")
	}
}

// TestAuditSweepRequiresAuditor pins the ErrNoAuditor contract and that
// NoteAuditSubjects before StartAuditor is a safe no-op.
func TestAuditSweepRequiresAuditor(t *testing.T) {
	nodes := fleet(t, 1, 0)
	nodes[0].NoteAuditSubjects(pkc.NodeID{1})
	if err := nodes[0].AuditSweep(); !errors.Is(err, ErrNoAuditor) {
		t.Fatalf("err %v, want ErrNoAuditor", err)
	}
}

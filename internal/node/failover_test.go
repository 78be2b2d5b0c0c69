package node

import (
	"math"
	"os"
	"testing"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/resilience"
)

// TestChaosAgentLossFailover: a peer's redundancy is its c agents, each of
// which hears every report (§3.6), plus the backup cache (§3.4.3). One of
// three agents loses its machine and its disk for good, mid-traffic. The
// peer's breaker must demote it and promote the first healthy backup, the
// evaluations must keep meeting quorum, and every surviving agent must answer
// exactly the shadow of the reports it acknowledged: the lost agent takes no
// acknowledged report with it that another agent did not also hold.
func TestChaosAgentLossFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos test")
	}
	fd := resilience.NewFaultDialer(nil)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()}
	agents := make([]*Node, len(dirs)) // a0, a1, a2 active; s1, s2 standby
	for i, dir := range dirs {
		agents[i] = mkNode(t, fd, true, dir)
	}
	a0 := agents[0]
	peer := mkNode(t, fd, false, "")
	relay := mkNode(t, fd, false, "")

	infos := make([]AgentInfo, len(agents))
	for i, a := range agents {
		infos[i] = liveAgentInfo(t, a, relay)
	}
	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos[:3] {
		if !book.Add(info) {
			t.Fatal("Add failed")
		}
	}
	for _, info := range infos[3:] {
		if !book.AddBackup(info) {
			t.Fatal("AddBackup failed")
		}
	}
	book.SetQuorum(2)
	peer.AttachBook(book)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}

	var subjects []pkc.NodeID
	for i := 0; i < 5; i++ {
		s, _ := pkc.NewIdentity(nil)
		subjects = append(subjects, s.ID)
	}
	// shadow[agent][subject] = {pos, neg} over the reports that agent
	// acknowledged as stored: the ground truth its answers must equal.
	shadow := map[pkc.NodeID]map[pkc.NodeID]*[2]int{}

	// report sends transaction k's outcome to every active agent, as §3.6
	// has the peer do, and books each acknowledgement in that agent's
	// shadow.
	report := func(k int) {
		t.Helper()
		subj := subjects[k%len(subjects)]
		positive := k%3 != 0
		for _, info := range book.Agents() {
			statuses, err := peer.ReportBatch(info, []BatchReport{{Subject: subj, Positive: positive}}, replyOnion)
			if err != nil || statuses[0] != StatusStored {
				t.Fatalf("report %d to %v: %v %v", k, info.ID(), statuses, err)
			}
			if shadow[info.ID()] == nil {
				shadow[info.ID()] = map[pkc.NodeID]*[2]int{}
			}
			tl := shadow[info.ID()][subj]
			if tl == nil {
				tl = &[2]int{}
				shadow[info.ID()][subj] = tl
			}
			if positive {
				tl[0]++
			} else {
				tl[1]++
			}
		}
	}

	// Phase 1: all three agents live. The first evaluation registers the
	// peer's key with each of them (§3.5.2), which report acceptance needs.
	if _, _, err := peer.EvaluateSubject(book, subjects[0], replyOnion); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 12; k++ {
		report(k)
	}

	// Phase 2: a0's machine and disk are lost for good. The peer keeps
	// evaluating; its breaker on a0 trips, demotes it, and promotes a
	// standby from the backup cache.
	fd.BlackHole(a0.Addr())
	if err := os.RemoveAll(dirs[0]); err != nil {
		t.Fatal(err)
	}
	var promoted pkc.NodeID
	for i := 0; i < 5 && promoted == (pkc.NodeID{}); i++ {
		if _, _, err := peer.EvaluateSubject(book, subjects[i%len(subjects)], replyOnion); err != nil {
			t.Fatalf("evaluation %d after the loss: %v", i, err)
		}
		for _, info := range book.Agents() {
			if info.ID() == infos[3].ID() || info.ID() == infos[4].ID() {
				promoted = info.ID()
			}
		}
	}
	if promoted != infos[3].ID() {
		t.Fatalf("promoted %v, want the first healthy backup %v; active book %v", promoted, infos[3].ID(), book.Agents())
	}
	if got := metric(t, peer, "node_failover_total"); got < 1 {
		t.Fatalf("node_failover_total = %d", got)
	}
	for _, info := range book.Agents() {
		if info.ID() == infos[0].ID() {
			t.Fatal("the lost agent is still in the active book")
		}
	}

	// Phase 3: traffic goes on against the healed book; the promoted
	// standby hears every report from here on.
	for k := 12; k < 21; k++ {
		report(k)
	}
	if _, _, err := peer.EvaluateSubject(book, subjects[0], replyOnion); err != nil {
		t.Fatalf("evaluation on the healed book: %v", err)
	}

	// Every surviving agent answers exactly the shadow of what it
	// acknowledged, and abstains on a subject it never heard of.
	for _, info := range book.Agents() {
		for _, subj := range subjects {
			v, hasData, err := peer.RequestTrust(info, subj, replyOnion)
			if err != nil {
				t.Fatalf("trust from %v: %v", info.ID(), err)
			}
			tl := shadow[info.ID()][subj]
			if tl == nil {
				if hasData {
					t.Fatalf("agent %v has an opinion of subject %v it never heard about", info.ID(), subj)
				}
				continue
			}
			want := float64(tl[0]+1) / float64(tl[0]+tl[1]+2)
			if !hasData || math.Abs(float64(v)-want) > 1e-9 {
				t.Fatalf("agent %v, subject %v: trust %v (hasData %v), shadow %v (pos=%d neg=%d)",
					info.ID(), subj, v, hasData, want, tl[0], tl[1])
			}
		}
	}
}

// TestPromoteBackupPrefersMostRecentlyDemoted pins §3.4.3's replacement
// rule: failover promotes the most recently demoted backup whose breaker is
// closed, and skips one whose breaker is open.
func TestPromoteBackupPrefersMostRecentlyDemoted(t *testing.T) {
	nodes := fleet(t, 4, 3)
	relay := nodes[3]
	b1, b2, peer := nodes[0], nodes[1], nodes[2]

	infoFor := func(a *Node) AgentInfo {
		o, err := a.BuildOnion(fetchRoute(t, a, []*Node{relay}))
		if err != nil {
			t.Fatal(err)
		}
		return a.Info(o)
	}
	info1, info2 := infoFor(b1), infoFor(b2)

	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	book.SetBreakerConfig(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	if !book.AddBackup(info1) || !book.AddBackup(info2) {
		t.Fatal("AddBackup failed")
	}
	promote := func(want pkc.NodeID) {
		t.Helper()
		if id, ok := peer.promoteBackup(book); !ok || id != want {
			t.Fatalf("promoted (%v, %v), want %v", id, ok, want)
		}
	}

	promote(info1.ID()) // first in line
	// Demoted while healthy, b1 is back at the head of the cache.
	if !book.Demote(info1.ID()) {
		t.Fatal("demote failed")
	}
	promote(info1.ID())
	// Demoted with its breaker open, b1 must be passed over.
	book.RecordFailure(info1.ID())
	if !book.Demote(info1.ID()) {
		t.Fatal("demote failed")
	}
	promote(info2.ID())
	if got := metric(t, peer, "node_failover_total"); got != 3 {
		t.Fatalf("node_failover_total = %d, want 3", got)
	}
}

// TestRestoreFirstFallsThrough pins the failover fallback: a promotion
// candidate that cannot be restored (it left the backup cache between
// scoring and promotion — a concurrent prober restored it already) must not
// abandon the failover while other healthy candidates remain.
func TestRestoreFirstFallsThrough(t *testing.T) {
	nodes := fleet(t, 3, 2)
	relay := nodes[2]
	b1, b2 := nodes[0], nodes[1]

	infoFor := func(a *Node) AgentInfo {
		o, err := a.BuildOnion(fetchRoute(t, a, []*Node{relay}))
		if err != nil {
			t.Fatal(err)
		}
		return a.Info(o)
	}
	info1, info2 := infoFor(b1), infoFor(b2)
	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !book.AddBackup(info1) || !book.AddBackup(info2) {
		t.Fatal("AddBackup failed")
	}

	ghost, _ := pkc.NewIdentity(nil) // best-scored candidate that vanished
	id, ok := restoreFirst(book, []pkc.NodeID{ghost.ID, info2.ID()})
	if !ok || id != info2.ID() {
		t.Fatalf("restoreFirst = (%v, %v), want fallthrough to %v", id, ok, info2.ID())
	}
}

// TestPromotionGrowsBook: every promotion that reports success grows the
// active book by one. An agent demoted to the backup cache may not be added
// back beside its cached copy; otherwise a later failover "restores" the
// cached copy over the active one, the book stays short, and the agent's
// expertise reverts to what it was demoted with.
func TestPromotionGrowsBook(t *testing.T) {
	nodes := fleet(t, 4, 3)
	peer := nodes[3]
	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	book.SetBreakerConfig(resilience.BreakerConfig{Threshold: 1})
	infos := make([]AgentInfo, 3)
	for i := range infos {
		infos[i] = liveAgentInfo(t, nodes[i], peer)
		if !book.Add(infos[i]) {
			t.Fatal("Add failed")
		}
	}
	a, b := infos[0].ID(), infos[1].ID()

	book.RecordOutcome(a, false) // expertise 0.7
	book.Demote(a)
	if book.Add(infos[0]) {
		t.Fatal("Add took an agent that is in the backup cache")
	}

	book.RecordFailure(b) // trips b's breaker, so a is the only candidate
	book.Demote(b)
	before := book.Len()
	id, ok := peer.promoteBackup(book)
	if !ok || id != a {
		t.Fatalf("promoted %v (ok %v), want %v", id, ok, a)
	}
	if book.Len() != before+1 {
		t.Fatalf("promotion left the book at %d agents, want %d", book.Len(), before+1)
	}
	if e, _ := book.Expertise(a); math.Abs(e-0.7) > 1e-9 {
		t.Fatalf("restored agent's expertise %v, want the 0.7 it was demoted with", e)
	}
}

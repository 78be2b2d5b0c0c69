package node

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// mkReplNode builds a node for replication tests on the shared chaos-grade
// fleet options (ChaosOptions, fleet.go) plus a short sync interval. A tiny
// handoff cap (the chaos test uses 4) makes handoff evictions — and therefore
// anti-entropy — actually happen in-test.
func mkReplNode(t *testing.T, fd *resilience.FaultDialer, agent bool, dir string, replicas []string, handoffCap int) *Node {
	t.Helper()
	opts := ChaosOptions(fd)
	opts.Agent = agent
	opts.StoreDir = dir
	opts.Replicas = replicas
	opts.SyncInterval = 150 * time.Millisecond
	opts.HandoffCap = handoffCap
	nd, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Close() })
	return nd
}

// appendReports stores n reports about subject straight into p's report
// store, alternating positive and negative, from one fresh reporter.
func appendReports(t *testing.T, p *Node, subject pkc.NodeID, n int) {
	t.Helper()
	reporter, _ := pkc.NewIdentity(nil)
	for i := 0; i < n; i++ {
		nonce, err := pkc.NewNonce(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Agent().Store().Append(repstore.Record{
			Reporter: reporter.ID, Subject: subject, Positive: i%2 == 0, Nonce: nonce,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicationShipsBatches: a primary with two replicas appends reports;
// every committed batch must arrive, apply in order, and become servable
// through the replicas' combined tally.
func TestReplicationShipsBatches(t *testing.T) {
	r1 := mkReplNode(t, nil, true, "", nil, 64)
	r2 := mkReplNode(t, nil, true, t.TempDir(), nil, 64)
	p := mkReplNode(t, nil, true, t.TempDir(), []string{r1.Addr(), r2.Addr()}, 64)
	r1.authorizeReplicaOf(p.ID())
	r2.authorizeReplicaOf(p.ID())

	subject := pkc.NodeID{1}
	const reports = 10
	appendReports(t, p, subject, reports)
	waitFor(t, func() bool {
		return r1.replicaReportCount(p.ID()) == reports && r2.replicaReportCount(p.ID()) == reports
	})

	// The replicas serve the primary's tallies through their combined view:
	// 5 positive / 5 negative → (5+1)/(10+2) = 0.5.
	for _, r := range []*Node{r1, r2} {
		v, ok := r.Agent().TrustValue(subject)
		if !ok {
			t.Fatal("replica has no combined opinion of the subject")
		}
		if math.Abs(float64(v)-0.5) > 1e-9 {
			t.Fatalf("replica trust = %v, want 0.5", v)
		}
	}

	if got := metric(t, p, "node_repl_batches_total"); got < reports {
		t.Fatalf("node_repl_batches_total = %d, want >= %d", got, reports)
	}
	if got := metric(t, p, "node_repl_shipped_total"); got < 1 {
		t.Fatalf("node_repl_shipped_total = %d", got)
	}
	if a := metric(t, r1, "node_repl_applied_total"); a < 1 {
		t.Fatalf("replica node_repl_applied_total = %d", a)
	}
	// Once everything is acked the hinted-handoff queues must be empty.
	waitFor(t, func() bool {
		return p.Metrics().Snapshot()["node_repl_handoff_depth"] == 0
	})
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

// TestChaosReplicationFailover is the replication capstone (DESIGN.md §10): a
// primary agent with two replicas takes live traffic behind a fault-injection
// dialer. One replica is black-holed from the start, so the primary's tiny
// handoff queue overflows and the replica must later converge via
// anti-entropy, not replay. Mid-traffic the replication path takes drops and
// the primary takes delays. Then the primary is killed outright and a replica
// is promoted by the peer's own breaker — and must answer trust requests
// with tallies equal to an independently maintained shadow model: zero
// acknowledged reports lost.
func TestChaosReplicationFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos test")
	}
	fd := resilience.NewFaultDialer(nil, 42)
	r1 := mkReplNode(t, fd, true, t.TempDir(), nil, 4)
	r2 := mkReplNode(t, fd, true, "", nil, 4)
	p := mkReplNode(t, fd, true, t.TempDir(), []string{r1.Addr(), r2.Addr()}, 4)
	peer := mkReplNode(t, fd, false, "", nil, 4)
	relay := mkReplNode(t, fd, false, "", nil, 4)

	// The offline pairing: each standby accepts state for this primary.
	r1.authorizeReplicaOf(p.ID())
	r2.authorizeReplicaOf(p.ID())

	infoFor := func(a *Node) AgentInfo {
		o, err := a.BuildOnion(fetchRoute(t, a, []*Node{relay}))
		if err != nil {
			t.Fatal(err)
		}
		return a.Info(o)
	}
	infoP, info1, info2 := infoFor(p), infoFor(r1), infoFor(r2)

	book, err := NewAgentBook(3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !book.Add(infoP) {
		t.Fatal("Add failed")
	}
	if !book.AddBackup(info1) || !book.AddBackup(info2) {
		t.Fatal("AddBackup failed")
	}
	book.SetQuorum(1)
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
	shadow := map[pkc.NodeID]*[2]int{} // subject → {pos, neg}: the ground truth

	// Baseline exchange: the primary registers the peer's key (§3.5.2), which
	// report acceptance requires.
	if _, _, err := peer.RequestTrust(infoP, subjects[0], replyOnion); err != nil {
		t.Fatal(err)
	}

	// report sends one transaction report to the primary and waits until the
	// primary has durably stored it — that store is the acknowledgement the
	// "zero acknowledged reports lost" guarantee is about.
	total := 0
	report := func(k int) {
		subj := subjects[k%len(subjects)]
		positive := k%3 != 0
		before := p.Agent().ReportCount()
		statuses, err := peer.ReportBatch(infoP, []BatchReport{{Subject: subj, Positive: positive}}, replyOnion)
		if err != nil || statuses[0] != StatusStored {
			t.Fatalf("report %d: %v %v", k, statuses, err)
		}
		waitFor(t, func() bool { return p.Agent().ReportCount() > before })
		tl, ok := shadow[subj]
		if !ok {
			tl = &[2]int{}
			shadow[subj] = tl
		}
		if positive {
			tl[0]++
		} else {
			tl[1]++
		}
		total++
	}

	// Phase 1: r2 dead from the first byte. The primary keeps serving, r1
	// keeps up live, and r2's 4-slot handoff queue overflows — evicted batches
	// are the gap anti-entropy exists to heal.
	fd.BlackHole(r2.Addr())
	for k := 0; k < 18; k++ {
		report(k)
	}
	waitFor(t, func() bool { return r1.replicaReportCount(p.ID()) == total })
	if got := p.Metrics().Snapshot()["node_repl_handoff_dropped_total"]; got == 0 {
		t.Fatal("handoff queue never overflowed — the divergence phase tested nothing")
	}
	if got := r2.replicaReportCount(p.ID()); got != 0 {
		t.Fatalf("black-holed replica applied %d reports", got)
	}

	// Phase 2: revive r2. The next periodic pass finds the sequence gap,
	// streams full shards, and seals — r2 converges without any WAL replay.
	fd.Clear(r2.Addr())
	waitFor(t, func() bool { return r2.replicaReportCount(p.ID()) == total })
	// The primary bumps its repair counters only after the sealing round trip
	// returns, which is after r2 already shows the converged state: wait on
	// them rather than reading them once.
	waitFor(t, func() bool {
		snap := p.Metrics().Snapshot()
		return snap["node_repl_antientropy_total"] >= 1 && snap["node_repl_shards_repaired_total"] >= 1
	})

	// Phase 3: faults on the replication path and delays on the primary, with
	// traffic still flowing. Resets kill r1's established session connections
	// mid-stream; then a drop rule refuses a fraction of the re-dials. Every
	// acknowledged report must still reach both replicas once the faults lift.
	fd.SetRule(p.Addr(), resilience.FaultRule{Mode: resilience.FaultDelay, Prob: 1, Delay: 15 * time.Millisecond})
	fd.SetRule(r1.Addr(), resilience.FaultRule{Mode: resilience.FaultReset})
	for k := 18; k < 27; k++ {
		report(k)
	}
	fd.SetRule(r1.Addr(), resilience.FaultRule{Mode: resilience.FaultDrop, Prob: 0.25})
	for k := 27; k < 36; k++ {
		report(k)
	}
	fd.Clear(r1.Addr())
	fd.Clear(p.Addr())
	waitFor(t, func() bool {
		return r1.replicaReportCount(p.ID()) == total && r2.replicaReportCount(p.ID()) == total
	})

	// Phase 4: kill the primary for good. The peer keeps evaluating; its
	// breaker on the primary trips, demotes it, and promotes a standby from
	// the backup cache — the production failover path, no direct call.
	fd.BlackHole(p.Addr())
	var promoted pkc.NodeID
	for i := 0; i < 5 && promoted == (pkc.NodeID{}); i++ {
		_, _, _ = peer.EvaluateSubject(book, subjects[0], replyOnion)
		if active := book.Agents(); len(active) == 1 && active[0].ID() != infoP.ID() {
			promoted = active[0].ID()
		}
	}
	if promoted == (pkc.NodeID{}) {
		t.Fatalf("the breaker never replaced the dead primary; active book %v", book.Agents())
	}
	if promoted != info1.ID() {
		t.Fatalf("promoted %v, want the first healthy backup %v", promoted, info1.ID())
	}
	if peer.Metrics().Snapshot()["node_failover_total"] < 1 {
		t.Fatal("failover counter not bumped")
	}

	// The promoted replica answers trust requests with exactly the shadow
	// model's tallies — the acknowledged history survived the primary.
	if got := r1.replicaReportCount(p.ID()); got != total {
		t.Fatalf("promoted replica holds %d reports, want %d (acknowledged)", got, total)
	}
	for subj, tl := range shadow {
		v, hasData, err := peer.RequestTrust(info1, subj, replyOnion)
		if err != nil {
			t.Fatalf("trust from promoted replica: %v", err)
		}
		if !hasData {
			t.Fatalf("promoted replica has no data for subject %v", subj)
		}
		want := float64(tl[0]+1) / float64(tl[0]+tl[1]+2)
		if math.Abs(float64(v)-want) > 1e-9 {
			t.Fatalf("subject %v: promoted trust %v, shadow %v (pos=%d neg=%d)", subj, v, want, tl[0], tl[1])
		}
	}

	batches, rounds := metric(t, p, "node_repl_batches_total"), metric(t, p, "node_repl_antientropy_total")
	if batches < int64(total) || rounds < 1 {
		t.Fatalf("primary repl stats: batches=%d anti-entropy rounds=%d", batches, rounds)
	}
	if metric(t, r1, "node_repl_applied_total") < 1 {
		t.Fatal("r1 never applied a shipped batch")
	}
}

// TestReplicationUnauthorizedRejected pins the ingress gate (replication is
// an offline pairing, not an open protocol): replication frames are
// self-certifying, so a valid signature alone must not let a stranger create
// replica state on an agent, poison its combined tally, or read its digests.
func TestReplicationUnauthorizedRejected(t *testing.T) {
	r := mkReplNode(t, nil, true, "", nil, 64)
	x := mkReplNode(t, nil, false, "", nil, 64) // transport client for the forged frames

	forged, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Forged RReplicate: pre-gate, this created a replica store for the
	// attacker's identity and attached it to the agent's serving path.
	var sp wire.Encoder
	sp.U64(replSigBatch).U64(1).U64(1).Bytes(nil)
	if _, _, err := x.roundTripTimeout(r.Addr(), wire.RReplicate, replWrap(forged, sp.Encode()), 250*time.Millisecond); err == nil {
		t.Fatal("unauthorized RReplicate was acknowledged")
	}
	r.replicas.mu.Lock()
	stores := len(r.replicas.m)
	r.replicas.mu.Unlock()
	if stores != 0 {
		t.Fatalf("unauthorized frame created %d replica store(s)", stores)
	}

	// Forged RDigest: a stranger must not read digests or open a repair
	// round.
	var dq wire.Encoder
	dq.U64(replSigDigest)
	if _, _, err := x.roundTripTimeout(r.Addr(), wire.RDigest, replWrap(forged, dq.Encode()), 250*time.Millisecond); err == nil {
		t.Fatal("unauthorized RDigest was answered")
	}
	if got := r.Metrics().Snapshot()["node_repl_unauthorized_total"]; got < 2 {
		t.Fatalf("unauthorized counter = %d, want >= 2", got)
	}
}

// TestRepairReplayRejected pins the freshness binding of anti-entropy: every
// repair frame must echo the challenge the replica issued in the digest
// response that opened the round, and the sentinel consumes the round — so a
// captured primary-signed round replayed later (after the primary's death,
// say) cannot roll the replica back to stale state.
func TestRepairReplayRejected(t *testing.T) {
	r := mkReplNode(t, nil, true, "", nil, 64)
	x := mkReplNode(t, nil, false, "", nil, 64)
	primary, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := primary.ID
	r.authorizeReplicaOf(pid)

	sentinel := func(challenge []byte, syncSeq uint64) []byte {
		var sp wire.Encoder
		sp.U64(replSigRepair).U64(7).U64(syncSeq).U64(repairSentinel).Bytes(challenge).Bytes(nil)
		return replWrap(primary, sp.Encode())
	}

	// A repair that skipped the digest handshake has no round to bind to.
	if _, _, err := x.roundTripTimeout(r.Addr(), wire.RRepair, sentinel(make([]byte, pkc.NonceSize), 3), 250*time.Millisecond); err == nil {
		t.Fatal("repair without a digest round was accepted")
	}

	// Open a round: the primary's digest request earns a challenge.
	var dq wire.Encoder
	dq.U64(replSigDigest)
	typ, resp, err := x.roundTripTimeout(r.Addr(), wire.RDigest, replWrap(primary, dq.Encode()), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.RDigestResp {
		t.Fatalf("digest response type = %v", typ)
	}
	d := wire.NewDecoder(resp)
	_, _, _ = d.U64(), d.U64(), d.Bool()
	challenge := append([]byte(nil), d.Bytes()...)
	if len(challenge) != pkc.NonceSize {
		t.Fatalf("challenge length = %d, want %d", len(challenge), pkc.NonceSize)
	}

	// The genuine round seals at the primary's sync point.
	frame := sentinel(challenge, 3)
	typ, _, err = x.roundTripTimeout(r.Addr(), wire.RRepair, frame, time.Second)
	if err != nil || typ != wire.RRepairAck {
		t.Fatalf("fresh repair round rejected: type=%v err=%v", typ, err)
	}
	st, _ := r.replicaState(pid, false)
	if st == nil {
		t.Fatal("sealed round left no replica state")
	}
	st.mu.Lock()
	lastSeq := st.lastSeq
	st.mu.Unlock()
	if lastSeq != 3 {
		t.Fatalf("sealed lastSeq = %d, want 3", lastSeq)
	}

	// Replaying the captured frames must die: the round was consumed.
	if _, _, err := x.roundTripTimeout(r.Addr(), wire.RRepair, frame, 250*time.Millisecond); err == nil {
		t.Fatal("replayed repair frame was accepted")
	}
	if got := r.Metrics().Snapshot()["node_repl_unauthorized_total"]; got < 2 {
		t.Fatalf("unauthorized counter = %d, want >= 2 (pre-round + replay)", got)
	}
}

// TestIdleReplicationQuiesces pins the steady-state cost of a caught-up
// replica at zero: once the replica is fully acked and the mandatory first
// comparison has passed, the periodic tick must stop sending digest probes
// (and therefore stop taking the primary's sync point or snapshotting the
// replica) until something diverges.
func TestIdleReplicationQuiesces(t *testing.T) {
	r1 := mkReplNode(t, nil, true, "", nil, 64)
	p := mkReplNode(t, nil, true, "", []string{r1.Addr()}, 64)
	r1.authorizeReplicaOf(p.ID())

	const reports = 5
	appendReports(t, p, pkc.NodeID{1}, reports)
	waitFor(t, func() bool { return r1.replicaReportCount(p.ID()) == reports })

	// Let the cold-target comparison (and any in-flight tick) finish, then
	// measure across several idle sync intervals.
	time.Sleep(3 * 150 * time.Millisecond)
	digestsBefore := r1.Metrics().Snapshot()["node_frames_in_repl-digest_total"]
	roundsBefore := p.Metrics().Snapshot()["node_repl_antientropy_total"]
	time.Sleep(5 * 150 * time.Millisecond)
	if got := r1.Metrics().Snapshot()["node_frames_in_repl-digest_total"]; got != digestsBefore {
		t.Fatalf("idle replica still receives digest probes: %d -> %d", digestsBefore, got)
	}
	if got := p.Metrics().Snapshot()["node_repl_antientropy_total"]; got != roundsBefore {
		t.Fatalf("idle primary still runs full sync rounds: %d -> %d", roundsBefore, got)
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

// TestHandoffQueuesStayInMemory: a primary queues committed batches for a
// down replica, closes, and reopens on the same store directory as a new
// identity. No handoff journal may be left in the directory, and once the
// replica is paired with the new identity it converges to the primary's
// report count through anti-entropy.
func TestHandoffQueuesStayInMemory(t *testing.T) {
	fd := resilience.NewFaultDialer(nil, 11)
	dir := t.TempDir()
	r := mkReplNode(t, fd, true, "", nil, 64)
	fd.BlackHole(r.Addr())
	p := mkReplNode(t, fd, true, dir, []string{r.Addr()}, 64)
	const reports = 6
	appendReports(t, p, pkc.NodeID{1}, reports)
	if d := p.repl.targets[0].out.Depth(); d == 0 {
		t.Fatal("nothing queued for the down replica")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if journals, _ := filepath.Glob(filepath.Join(dir, "handoff-*")); len(journals) != 0 {
		t.Fatalf("handoff journals left in the store directory: %v", journals)
	}

	fd.Clear(r.Addr())
	p2 := mkReplNode(t, fd, true, dir, []string{r.Addr()}, 64)
	if got := p2.Agent().ReportCount(); got != reports {
		t.Fatalf("reopened primary holds %d reports, want %d", got, reports)
	}
	r.authorizeReplicaOf(p2.ID())
	waitFor(t, func() bool { return r.replicaReportCount(p2.ID()) == reports })
}

// TestRestartedReplicaServesFromDisk: a durable replica that restarts after
// its primary died serves the replicated tallies at once. Its store must not
// wait to be reopened by a frame the dead primary will never send.
func TestRestartedReplicaServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	r := mkReplNode(t, nil, true, dir, nil, 64)
	p := mkReplNode(t, nil, true, "", []string{r.Addr()}, 64)
	primary := p.ID()
	r.authorizeReplicaOf(primary)
	subject := pkc.NodeID{1}
	const reports = 6
	appendReports(t, p, subject, reports)
	waitFor(t, func() bool { return r.replicaReportCount(primary) == reports })
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	opts := ChaosOptions(nil)
	opts.Agent = true
	opts.StoreDir = dir
	opts.ReplicaOf = []pkc.NodeID{primary}
	r2, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r2.Close() })
	if got := r2.replicaReportCount(primary); got != reports {
		t.Fatalf("restarted replica holds %d reports, want %d", got, reports)
	}
	if _, ok := r2.Agent().TrustValue(subject); !ok {
		t.Fatal("restarted replica has no opinion of the replicated subject")
	}

	// A replica store that cannot be reopened fails Listen rather than
	// leaving the replica silently empty.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "replica", primary.String(), "snapshot")
	if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := Listen("127.0.0.1:0", opts)
	if err == nil {
		_ = r3.Close()
		t.Fatal("Listen reopened a corrupt replica store")
	}
	if !errors.Is(err, repstore.ErrCorruptSnapshot) {
		t.Fatalf("Listen error = %v, want the replica store's ErrCorruptSnapshot", err)
	}
}

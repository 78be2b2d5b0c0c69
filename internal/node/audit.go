package node

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"hirep/internal/audit"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file is the node side of the self-healing trust plane (DESIGN.md §15,
// internal/audit): a background auditor that proactively samples subjects
// across the attached book's agents over the TProofReq path, verifies the
// returned bundles, cross-checks a second agent to catch divergence a single
// self-consistent bundle hides, and turns provable lies into signed audit
// advisories gossiped to the node's neighbors. Received advisories are
// re-verified end to end before the book acts on them — the advisory carries
// the offending bundle, so trust in the sender is never required.

const (
	defaultAuditSample              = 4 // subjects audited per sweep
	defaultAuditQuarantineThreshold = 3 // suspect strikes before a book quarantines
	// auditSubjectPoolCap bounds the rotating pool of subjects the sweep
	// samples from (fed by EvaluateSubject and NoteAuditSubjects).
	auditSubjectPoolCap = 256
	// advisorySeenCap bounds gossip dedup state; advisoryLogCap the log of
	// advisories this node verified (issued or accepted).
	advisorySeenCap = 1024
	advisoryLogCap  = 64
	// Slander thresholds: a reporter needs at least slanderMinReports
	// accepted reports with at least slanderMinSkew of them negative before
	// it is flagged (a handful of honest negative reports is not slander).
	slanderMinReports = 8
	slanderMinSkew    = 0.9
)

// ErrNoAuditor is returned by AuditSweep when StartAuditor has not run.
var ErrNoAuditor = errors.New("node: auditor not started")

// auditor is the background audit state: the book under audit, the reply
// onion audit fetches answer through, and the per-accused evidence ledger
// behind the quarantine → eviction escalation.
type auditor struct {
	book       *AgentBook
	replyOnion *onion.Onion

	sweepMu sync.Mutex // one sweep at a time (ticker + manual calls)

	mu          sync.Mutex
	subjects    []pkc.NodeID // rotating sample pool, oldest first
	inPool      map[pkc.NodeID]bool
	skew        *audit.SkewTable
	slanderSeen map[pkc.NodeID]bool
}

// AdvisoryRecord is one advisory this node verified end to end — issued by
// its own auditor or accepted from gossip.
type AdvisoryRecord struct {
	Accused pkc.NodeID
	Auditor pkc.NodeID
	Reason  string // this node's own verification reason, not the sender's
	Issued  uint64
}

// StartAuditor attaches the audit sweep to book: probation probes and subject
// audits answer through replyOnion, verified lies quarantine (then evict) the
// offender and gossip a signed advisory to the node's neighbors. With
// Options.AuditInterval > 0 a background loop sweeps on that cadence;
// otherwise sweeps run only when AuditSweep is called (tests, operators).
func (n *Node) StartAuditor(book *AgentBook, replyOnion *onion.Onion) error {
	if book == nil || replyOnion == nil {
		return fmt.Errorf("node: auditor needs a book and a reply onion")
	}
	n.auditMu.Lock()
	if n.auditor != nil {
		n.auditMu.Unlock()
		return fmt.Errorf("node: auditor already started")
	}
	n.auditor = &auditor{
		book:        book,
		replyOnion:  replyOnion,
		inPool:      make(map[pkc.NodeID]bool),
		skew:        audit.NewSkewTable(),
		slanderSeen: make(map[pkc.NodeID]bool),
	}
	n.auditMu.Unlock()
	if n.opts.AuditInterval > 0 {
		n.wg.Add(1)
		go n.auditLoop(n.opts.AuditInterval)
	}
	return nil
}

func (n *Node) auditLoop(interval time.Duration) {
	defer n.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.closeCh:
			return
		case <-t.C:
			_ = n.AuditSweep()
		}
	}
}

func (n *Node) currentAuditor() *auditor {
	n.auditMu.Lock()
	defer n.auditMu.Unlock()
	return n.auditor
}

// NoteAuditSubjects adds subjects to the auditor's rotating sample pool.
// EvaluateSubject feeds the pool automatically; this is the seam for seeding
// it directly (campaign harness, operators). A no-op before StartAuditor.
func (n *Node) NoteAuditSubjects(subjects ...pkc.NodeID) {
	a := n.currentAuditor()
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range subjects {
		if a.inPool[s] {
			continue
		}
		if len(a.subjects) >= auditSubjectPoolCap {
			drop := a.subjects[0]
			a.subjects = a.subjects[1:]
			delete(a.inPool, drop)
		}
		a.subjects = append(a.subjects, s)
		a.inPool[s] = true
	}
}

// nextAuditSubjects takes up to k subjects off the front of the pool and
// rotates them to the back, so successive sweeps cycle the whole pool.
func (a *auditor) nextAuditSubjects(k int) []pkc.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k > len(a.subjects) {
		k = len(a.subjects)
	}
	out := append([]pkc.NodeID(nil), a.subjects[:k]...)
	a.subjects = append(a.subjects[k:], out...)
	return out
}

// AuditSweep runs one audit pass: probation probes of quarantined agents
// first, then up to defaultAuditSample sampled subjects, each fetched from
// its serving agent with retry/backoff
// under a per-sweep deadline and cross-checked against a second agent.
// Returns ErrNoAuditor before StartAuditor.
func (n *Node) AuditSweep() error {
	a := n.currentAuditor()
	if a == nil {
		return ErrNoAuditor
	}
	a.sweepMu.Lock()
	defer a.sweepMu.Unlock()
	if n.isClosed() {
		return ErrClosed
	}
	// The sweep budget is the audit interval when one is set (a sweep must
	// not outlast its cadence), floored at the request timeout so a tight
	// test cadence still allows one full-timeout fetch.
	budget := n.opts.AuditInterval
	if t := n.timeout(); budget < t {
		budget = t
	}
	deadline := time.Now().Add(budget)
	n.auditProbation(a, deadline)
	for _, subject := range a.nextAuditSubjects(defaultAuditSample) {
		if n.isClosed() || !time.Now().Before(deadline) {
			break
		}
		n.auditSubject(a, subject, deadline)
	}
	n.updateSlanderGauge(a)
	n.cnt.auditSweeps.Inc()
	return nil
}

// auditProbation re-audits quarantined agents. A Lying probation bundle is a
// second piece of verified evidence — eviction. A Matching one does NOT
// rehabilitate: the agent got to quarantine on proof (or a full strike
// count), and honesty while under observation is exactly what a selectively
// lying agent would serve. Only suspects rehabilitate (in auditSubject).
func (n *Node) auditProbation(a *auditor, deadline time.Time) {
	for _, id := range a.book.Quarantined() {
		if n.isClosed() || !time.Now().Before(deadline) {
			return
		}
		info, ok := a.book.QuarantinedInfo(id)
		if !ok {
			continue
		}
		n.cnt.auditProbes.Inc()
		b, res, err := n.auditFetch(info, id, a.replyOnion, deadline)
		if err != nil || res.Verdict == proof.Partial {
			// Quarantined agents are outside the book's breaker accounting;
			// an unreachable one just stays quarantined.
			n.cnt.auditFailures.Inc()
			continue
		}
		if res.Verdict == proof.Lying {
			n.raiseAdvisory(a, b, res)
		}
	}
}

// auditSubject audits one sampled subject: fetch from the owning agent,
// verify, cross-check a second agent, act on the verdicts.
func (n *Node) auditSubject(a *auditor, subject pkc.NodeID, deadline time.Time) {
	primary, second, ok := n.auditTargets(a.book, subject)
	if !ok {
		return
	}
	n.cnt.auditProbes.Inc()
	b, res, err := n.auditFetch(primary, subject, a.replyOnion, deadline)
	if err != nil {
		// No verdict: a timeout or unreachable agent feeds the same breaker
		// accounting as any failed exchange — never the quarantine ladder, so
		// a flaky network cannot evict an honest agent.
		n.cnt.auditFailures.Inc()
		n.noteAuditUnreachable(a.book, primary.ID())
		return
	}
	if res.Verdict == proof.Lying {
		n.raiseAdvisory(a, b, res)
		return
	}
	n.noteSuccess(a.book, primary.ID())
	if res.Verdict == proof.Partial {
		// Declared-incomplete evidence proves nothing either way.
		n.cnt.auditFailures.Inc()
		return
	}
	// Matching: fold the evidence into the slander skew table, then
	// cross-check the same subject against a second agent — one agent's
	// self-consistent bundle can still under- or over-report what the rest
	// of the group holds.
	a.mu.Lock()
	a.skew.ObserveBundle(b)
	a.mu.Unlock()
	if second == nil || n.isClosed() || !time.Now().Before(deadline) {
		n.rehabilitateIfSuspect(a.book, primary.ID())
		return
	}
	n.cnt.auditProbes.Inc()
	b2, res2, err := n.auditFetch(*second, subject, a.replyOnion, deadline)
	if err != nil {
		n.cnt.auditFailures.Inc()
		n.noteAuditUnreachable(a.book, second.ID())
		n.rehabilitateIfSuspect(a.book, primary.ID())
		return
	}
	if res2.Verdict == proof.Lying {
		n.raiseAdvisory(a, b2, res2)
		return
	}
	n.noteSuccess(a.book, second.ID())
	if res2.Verdict == proof.Partial {
		n.cnt.auditFailures.Inc()
		n.rehabilitateIfSuspect(a.book, primary.ID())
		return
	}
	// Two Matching bundles for the same subject that recompute different
	// tallies: each is internally consistent, but at most one reflects the
	// group's report stream. Which one is wrong is not provable from here —
	// report propagation lags, replication gaps — so both take a suspect
	// strike, never an advisory.
	if res.Pos != res2.Pos || res.Neg != res2.Neg {
		n.cnt.auditDiverged.Inc()
		n.markSuspect(a.book, primary.ID())
		n.markSuspect(a.book, second.ID())
		return
	}
	// Consistent, matching audits rehabilitate suspects.
	n.rehabilitateIfSuspect(a.book, primary.ID())
	n.rehabilitateIfSuspect(a.book, second.ID())
}

// auditTargets resolves which agent serves subject (a stable hash across the
// book) and a second, distinct book agent for the cross-check.
func (n *Node) auditTargets(book *AgentBook, subject pkc.NodeID) (primary AgentInfo, second *AgentInfo, ok bool) {
	agents := book.Agents()
	if len(agents) == 0 {
		return AgentInfo{}, nil, false
	}
	primary = agents[int(subject[0])%len(agents)]
	for i := range agents {
		if agents[i].ID() != primary.ID() {
			second = &agents[i]
			break
		}
	}
	return primary, second, true
}

// auditFetch fetches and verifies one proof bundle with the node's retry
// policy, each attempt's wait capped to what remains of the sweep deadline.
func (n *Node) auditFetch(target AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, deadline time.Time) (*proof.Bundle, proof.Result, error) {
	var (
		b   *proof.Bundle
		res proof.Result
	)
	err := n.retry(0, func(wait time.Duration) error {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return resilience.Permanent(ErrTimeout)
		}
		if wait > remaining {
			wait = remaining
		}
		var aerr error
		b, res, aerr = n.requestTrustProvenOnce(target, subject, replyOnion, wait)
		return aerr
	})
	return b, res, err
}

// noteAuditUnreachable feeds a failed audit exchange into the agent's breaker
// — only while the book still tracks it as healthy or suspect, so an agent
// evicted mid-sweep never gets breaker state back.
func (n *Node) noteAuditUnreachable(book *AgentBook, id pkc.NodeID) {
	switch book.Health(id) {
	case Healthy, Suspect:
		n.noteFailure(book, id)
	}
}

// markSuspect records a suspect strike and handles a threshold quarantine:
// counting it and, when the quarantine vacated an active slot, promoting a
// standby into the hole.
func (n *Node) markSuspect(book *AgentBook, id pkc.NodeID) {
	_, quarantined, wasActive := book.MarkSuspect(id)
	if !quarantined {
		return
	}
	n.cnt.agentsQuarantined.Inc()
	if wasActive {
		if _, ok := n.promoteBackup(book, id); ok {
			n.cnt.failovers.Inc()
		}
	}
}

func (n *Node) rehabilitateIfSuspect(book *AgentBook, id pkc.NodeID) {
	if book.Rehabilitate(id) {
		n.cnt.agentsRehabilitated.Inc()
	}
}

// raiseAdvisory packages a verified Lying bundle into a signed advisory,
// applies the evidence to the local book, and gossips the advisory to the
// node's neighbors.
func (n *Node) raiseAdvisory(a *auditor, b *proof.Bundle, res proof.Result) {
	a.mu.Lock()
	suspects := a.skew.Suspects(slanderMinReports, slanderMinSkew)
	a.mu.Unlock()
	adv := &audit.Advisory{
		Accused:  b.AgentID(),
		Reason:   res.Reason,
		Issued:   uint64(time.Now().Unix()),
		Bundle:   b.Encode(),
		Suspects: suspects,
	}
	adv.Sign(n.identity())
	// Mark our own advisory as seen so a gossip echo is deduplicated.
	n.advisorySeen(adv.Digest())
	n.cnt.advisoriesIssued.Inc()
	n.recordAdvisory(AdvisoryRecord{Accused: adv.Accused, Auditor: n.ID(), Reason: res.Reason, Issued: adv.Issued})
	n.applyLyingEvidence(a.book, adv.Accused, sha256.Sum256(adv.Bundle))
	n.gossipAdvisory(adv.Encode())
}

// applyLyingEvidence escalates a verified lie against accused: the first
// distinct offending bundle quarantines (promoting a standby if an active
// slot was vacated), a second distinct one evicts. The same bundle re-learned
// through another path never double-counts — the per-accused digest ledger
// dedups it.
func (n *Node) applyLyingEvidence(book *AgentBook, accused pkc.NodeID, bundleDigest [sha256.Size]byte) {
	if book == nil {
		return
	}
	n.auditMu.Lock()
	if n.lyingEvidence == nil {
		n.lyingEvidence = make(map[pkc.NodeID]map[[sha256.Size]byte]bool)
	}
	set := n.lyingEvidence[accused]
	if set == nil {
		set = make(map[[sha256.Size]byte]bool)
		n.lyingEvidence[accused] = set
	}
	set[bundleDigest] = true
	strikes := len(set)
	n.auditMu.Unlock()
	if strikes >= 2 {
		if book.Evict(accused) {
			n.cnt.agentsEvicted.Inc()
		}
		return
	}
	quarantined, wasActive := book.Quarantine(accused)
	if !quarantined {
		return
	}
	n.cnt.agentsQuarantined.Inc()
	if wasActive {
		if _, ok := n.promoteBackup(book, accused); ok {
			n.cnt.failovers.Inc()
		}
	}
}

// gossipAdvisory ships encoded advisory bytes to every neighbor over a
// single-layer exit onion (onion.BuildExit): the advisory travels the same
// relay transport as every onion-inner frame, sealed to the neighbor's
// anonymity key. Runs in the background — gossip must not stall a sweep or a
// session handler.
func (n *Node) gossipAdvisory(encoded []byte) {
	neighbors := n.Neighbors()
	if len(neighbors) == 0 || n.isClosed() {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for _, addr := range neighbors {
			if n.isClosed() {
				return
			}
			rel, err := n.FetchAnonKey(addr)
			if err != nil {
				continue
			}
			o, err := onion.BuildExit(n.identity(), rel, n.nextSeq(), nil)
			if err != nil {
				continue
			}
			sealed, err := pkc.Seal(rel.AP, encoded, nil)
			if err != nil {
				continue
			}
			_ = n.sendThroughOnion(o, wire.TAdvisory, sealed)
		}
	}()
}

// advisorySeen records an advisory digest and reports whether it was NEW
// (false means duplicate).
func (n *Node) advisorySeen(digest [sha256.Size]byte) bool {
	var key pkc.Nonce
	copy(key[:], digest[:pkc.NonceSize])
	n.auditMu.Lock()
	defer n.auditMu.Unlock()
	if n.advSeen == nil {
		n.advSeen = pkc.NewReplayCache(advisorySeenCap)
	}
	return n.advSeen.Observe(key)
}

// recordAdvisory appends to the bounded log of advisories this node verified.
func (n *Node) recordAdvisory(rec AdvisoryRecord) {
	n.auditMu.Lock()
	defer n.auditMu.Unlock()
	n.advisLog = append(n.advisLog, rec)
	if len(n.advisLog) > advisoryLogCap {
		n.advisLog = n.advisLog[len(n.advisLog)-advisoryLogCap:]
	}
}

// Advisories returns the advisories this node has verified end to end —
// issued by its own auditor or accepted from gossip — oldest first.
func (n *Node) Advisories() []AdvisoryRecord {
	n.auditMu.Lock()
	defer n.auditMu.Unlock()
	return append([]AdvisoryRecord(nil), n.advisLog...)
}

// handleAdvisory consumes one gossiped advisory arriving as an onion-inner
// frame. Nothing in it is trusted until this node re-runs the whole chain —
// advisory signature, bundle decode, proof.Verify, accused-vs-signer — on its
// own; a fabricated advisory (bad or missing bundle, exonerating verdict,
// wrong accused) is counted and dropped, never acted on.
func (n *Node) handleAdvisory(sealed []byte) {
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	adv, err := audit.DecodeAdvisory(plain)
	if err != nil {
		n.cnt.advisoriesRejected.Inc()
		return
	}
	if !n.advisorySeen(adv.Digest()) {
		n.cnt.advisoriesDuplicate.Inc()
		return
	}
	_, res, err := adv.Verify(n.proofs)
	if err != nil {
		n.cnt.advisoriesRejected.Inc()
		return
	}
	n.cnt.advisoriesAccepted.Inc()
	n.recordAdvisory(AdvisoryRecord{Accused: adv.Accused, Auditor: adv.AuditorID(), Reason: res.Reason, Issued: adv.Issued})
	// Act on the verified evidence against whichever book this node runs —
	// the audited one when an auditor is attached, else the node's general
	// attached book.
	book := n.attachedBook()
	if a := n.currentAuditor(); a != nil {
		book = a.book
	}
	n.applyLyingEvidence(book, adv.Accused, sha256.Sum256(adv.Bundle))
	// Re-gossip once so advisories reach neighbors of neighbors; the digest
	// dedup above terminates the flood.
	n.gossipAdvisory(plain)
}

// updateSlanderGauge refreshes the slander gauge from the auditor's skew
// table and counts newly flagged reporters.
func (n *Node) updateSlanderGauge(a *auditor) {
	a.mu.Lock()
	suspects := a.skew.Suspects(slanderMinReports, slanderMinSkew)
	var fresh int64
	for _, s := range suspects {
		if !a.slanderSeen[s.Reporter] {
			a.slanderSeen[s.Reporter] = true
			fresh++
		}
	}
	a.mu.Unlock()
	n.cnt.slanderSuspects.Set(int64(len(suspects)))
	n.cnt.slanderSuspectsFound.Add(fresh)
}

package node

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/trust"
)

// AgentBook is the live-node counterpart of the simulated peer's trusted
// agent list (§3.4): it holds up to max verified agent descriptors with an
// expertise EWMA per agent, removes agents that fall below the threshold,
// and keeps demoted-but-positive agents in a backup cache.
//
// Each agent additionally carries a circuit breaker (closed → open after
// consecutive failures → half-open probe → closed again) so a dead agent is
// skipped instead of timing out every evaluation, and a quorum k: an
// evaluation that gathers at least k answers out of the book succeeds with
// partial results rather than failing on the first missing agent.
//
// The audit subsystem (DESIGN.md §15) layers a health lifecycle on top:
// healthy → suspect → quarantined → evicted. Suspect is a soft state (audit
// divergence, unproven signals) that strikes accumulate in and a Matching
// re-audit clears; quarantine removes the agent from both the active book and
// the backup cache — it serves no quorum and cannot be promoted — but keeps
// its descriptor for probation probes; eviction bans it outright. Breaker
// state is deliberately different: it tracks reachability, not honesty, and
// is kept across demotion so a dead agent is not instantly re-promoted.
type AgentBook struct {
	mu        sync.Mutex
	max       int
	alpha     float64
	threshold float64
	quorum    int
	entries   map[pkc.NodeID]*bookEntry
	backups   []*bookEntry // most recently demoted first
	banned    map[pkc.NodeID]bool
	breakers  *resilience.Breakers[pkc.NodeID]
	// replSeq caches replication positions learned from status probes:
	// backup → primary → highest acknowledged sequence. Stateful promotion
	// (promoteBackup, promoteReplica) prefers the most-caught-up backup.
	replSeq map[pkc.NodeID]map[pkc.NodeID]uint64
	// quarantined holds agents pulled from service on verified lying
	// evidence or accumulated suspect strikes, pending probation probes or
	// eviction; defaultAuditQuarantineThreshold suspect strikes put an agent
	// there.
	quarantined map[pkc.NodeID]*bookEntry
}

type bookEntry struct {
	info      AgentInfo
	expertise *trust.Expertise
	health    AgentHealth
	strikes   int
}

// AgentHealth is an agent's position in the audit lifecycle (§15).
type AgentHealth int

const (
	// Healthy: no open audit concern. The zero value, so fresh entries
	// start healthy.
	Healthy AgentHealth = iota
	// Suspect: soft audit signals (divergence between two agents' bundles,
	// repeated audit anomalies) accumulated against it; rehabilitated by a
	// Matching re-audit, quarantined at the strike threshold.
	Suspect
	// Quarantined: out of service — excluded from quorum selection and from
	// standby promotion — but retained for probation probes.
	Quarantined
	// Evicted: removed and banned; the terminal state.
	Evicted
	// HealthUnknown: the ID is not tracked by this book.
	HealthUnknown
)

func (h AgentHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Evicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// NewAgentBook creates a book holding at most max agents, with expertise
// EWMA factor alpha and removal threshold.
func NewAgentBook(max int, alpha, threshold float64) (*AgentBook, error) {
	if max < 1 {
		return nil, fmt.Errorf("node: book size must be >= 1, got %d", max)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("node: alpha must be in (0,1), got %v", alpha)
	}
	if threshold < 0 || threshold >= 1 {
		return nil, fmt.Errorf("node: threshold must be in [0,1), got %v", threshold)
	}
	return &AgentBook{
		max:         max,
		alpha:       alpha,
		threshold:   threshold,
		quorum:      1,
		entries:     make(map[pkc.NodeID]*bookEntry),
		banned:      make(map[pkc.NodeID]bool),
		breakers:    resilience.NewBreakers[pkc.NodeID](resilience.BreakerConfig{}),
		quarantined: make(map[pkc.NodeID]*bookEntry),
	}, nil
}

// SetBreakerConfig applies cfg to every agent's circuit breaker, current and
// future (existing breaker positions are kept). Node.AttachBook calls this
// with the node's Options.Breaker.
func (b *AgentBook) SetBreakerConfig(cfg resilience.BreakerConfig) {
	b.breakers.SetConfig(cfg)
}

// SetQuorum sets the minimum number of agent answers an evaluation needs to
// succeed (clamped to >= 1; values above the book size make every agent
// required).
func (b *AgentBook) SetQuorum(k int) {
	if k < 1 {
		k = 1
	}
	b.mu.Lock()
	b.quorum = k
	b.mu.Unlock()
}

// Quorum returns the configured evaluation quorum.
func (b *AgentBook) Quorum() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quorum
}

// Allow consults id's circuit breaker before a request (see
// resilience.Breaker.Allow; probe == true means the caller holds the single
// half-open probe slot and must report the outcome).
func (b *AgentBook) Allow(id pkc.NodeID) (ok, probe bool) {
	return b.breakers.Get(id).Allow()
}

// BreakerState returns id's stored breaker position without advancing it.
func (b *AgentBook) BreakerState(id pkc.NodeID) resilience.BreakerState {
	return b.breakers.Get(id).State()
}

// RecordSuccess feeds a successful exchange into id's breaker; it reports
// whether this closed a previously tripped breaker.
func (b *AgentBook) RecordSuccess(id pkc.NodeID) bool {
	return b.breakers.Get(id).Success()
}

// RecordFailure feeds a failed exchange into id's breaker; it reports whether
// this call tripped the breaker open.
func (b *AgentBook) RecordFailure(id pkc.NodeID) bool {
	return b.breakers.Get(id).Failure()
}

// Add inserts a verified agent descriptor with initial expertise 1
// (§3.4.3). It reports whether the agent was added: duplicates, banned
// agents, descriptors failing verification, and a full book are rejected.
func (b *AgentBook) Add(info AgentInfo) bool {
	if info.Onion == nil || info.Onion.VerifySig(info.SP) != nil {
		return false
	}
	id := info.ID()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.banned[id] {
		return false
	}
	if _, dup := b.entries[id]; dup {
		return false
	}
	if _, q := b.quarantined[id]; q {
		return false
	}
	if len(b.entries) >= b.max {
		return false
	}
	exp, err := trust.NewExpertise(b.alpha)
	if err != nil {
		return false
	}
	b.entries[id] = &bookEntry{info: info, expertise: exp}
	return true
}

// Agents returns the current trusted agents, most expert first.
func (b *AgentBook) Agents() []AgentInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	type row struct {
		info AgentInfo
		e    float64
	}
	rows := make([]row, 0, len(b.entries))
	for _, en := range b.entries {
		rows = append(rows, row{en.info, en.expertise.Value()})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].e != rows[j].e {
			return rows[i].e > rows[j].e
		}
		return rows[i].info.ID().String() < rows[j].info.ID().String()
	})
	out := make([]AgentInfo, len(rows))
	for i, r := range rows {
		out[i] = r.info
	}
	return out
}

// Len returns the number of trusted agents.
func (b *AgentBook) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Expertise returns the tracked expertise of an agent.
func (b *AgentBook) Expertise(id pkc.NodeID) (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[id]; ok {
		return e.expertise.Value(), true
	}
	return 0, false
}

// RecordOutcome folds one transaction's consistency observation into an
// agent's expertise (§3.4.3) and removes + bans the agent when it falls
// below the threshold. It reports whether the agent was removed.
func (b *AgentBook) RecordOutcome(id pkc.NodeID, consistent bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return false
	}
	e.expertise.Update(consistent)
	if e.expertise.Value() < b.threshold {
		delete(b.entries, id)
		b.banned[id] = true
		b.clearStateLocked(id) // banned agents never come back
		return true
	}
	return false
}

// Demote moves an unresponsive agent to the backup cache when its expertise
// is positive, else drops it (§3.4.3's offline handling). It reports whether
// the agent was in the active book.
func (b *AgentBook) Demote(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return false
	}
	delete(b.entries, id)
	if e.expertise.Value() > 1e-6 {
		b.backups = append([]*bookEntry{e}, b.backups...)
		if len(b.backups) > b.max {
			// Entries truncated off the cache leave the book entirely; a
			// later re-add must start with a clean slate.
			for _, dropped := range b.backups[b.max:] {
				b.clearStateLocked(dropped.info.ID())
			}
			b.backups = b.backups[:b.max]
		}
	} else {
		// Dropped outright — the ID leaves the book, so its cached state goes
		// with it (a re-keyed or rehabilitated agent must not inherit it).
		b.clearStateLocked(id)
	}
	return true
}

// AddBackup inserts a verified descriptor straight into the backup cache —
// a standby the book can promote when a trusted agent's breaker trips —
// without consuming an active slot. Duplicates (active or backup), banned
// agents, bad descriptors, and a full cache are rejected.
func (b *AgentBook) AddBackup(info AgentInfo) bool {
	if info.Onion == nil || info.Onion.VerifySig(info.SP) != nil {
		return false
	}
	id := info.ID()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.banned[id] {
		return false
	}
	if _, dup := b.entries[id]; dup {
		return false
	}
	if _, q := b.quarantined[id]; q {
		return false
	}
	for _, e := range b.backups {
		if e.info.ID() == id {
			return false
		}
	}
	if len(b.backups) >= b.max {
		return false
	}
	exp, err := trust.NewExpertise(b.alpha)
	if err != nil {
		return false
	}
	b.backups = append(b.backups, &bookEntry{info: info, expertise: exp})
	return true
}

// NoteReplicaSeq caches a backup's replication position for one primary,
// learned from a TReplStatus probe.
func (b *AgentBook) NoteReplicaSeq(backup, primary pkc.NodeID, seq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.replSeq == nil {
		b.replSeq = make(map[pkc.NodeID]map[pkc.NodeID]uint64)
	}
	m := b.replSeq[backup]
	if m == nil {
		m = make(map[pkc.NodeID]uint64)
		b.replSeq[backup] = m
	}
	if seq > m[primary] {
		m[primary] = seq
	}
}

// ReplicaSeq returns the cached replication position of backup for primary
// (0 when never probed).
func (b *AgentBook) ReplicaSeq(backup, primary pkc.NodeID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replSeq[backup][primary]
}

// BackupInfo returns the descriptor of a backup-cache agent.
func (b *AgentBook) BackupInfo(id pkc.NodeID) (AgentInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.backups {
		if e.info.ID() == id {
			return e.info, true
		}
	}
	return AgentInfo{}, false
}

// Restore moves a backup agent back into the book (after a successful
// probe); it reports success.
func (b *AgentBook) Restore(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) >= b.max {
		return false
	}
	for i, e := range b.backups {
		if e.info.ID() == id {
			b.backups = append(b.backups[:i], b.backups[i+1:]...)
			b.entries[id] = e
			return true
		}
	}
	return false
}

// Backups returns the backup-cache agent IDs, most recently demoted first.
func (b *AgentBook) Backups() []pkc.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]pkc.NodeID, len(b.backups))
	for i, e := range b.backups {
		out[i] = e.info.ID()
	}
	return out
}

// clearStateLocked drops every per-agent cache keyed by id — breaker position
// and replica-seq entries (both as backup and as primary) — so an agent that
// fully leaves the book and is later re-added (rehabilitated or re-keyed)
// does not inherit stale failure state. Called with b.mu held, and only when
// id leaves the book entirely: demotion INTO the backup cache keeps breaker
// state on purpose, because promotion must not re-select an agent that is
// known dead.
func (b *AgentBook) clearStateLocked(id pkc.NodeID) {
	b.breakers.Forget(id)
	delete(b.replSeq, id)
	for _, m := range b.replSeq {
		delete(m, id)
	}
}

// findLocked returns id's entry wherever it lives (active, backup, or
// quarantine). Called with b.mu held.
func (b *AgentBook) findLocked(id pkc.NodeID) *bookEntry {
	if e, ok := b.entries[id]; ok {
		return e
	}
	if e, ok := b.quarantined[id]; ok {
		return e
	}
	for _, e := range b.backups {
		if e.info.ID() == id {
			return e
		}
	}
	return nil
}

// Health returns id's audit-lifecycle position: the entry's health for
// tracked agents, Evicted for banned IDs, HealthUnknown otherwise.
func (b *AgentBook) Health(id pkc.NodeID) AgentHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.findLocked(id); e != nil {
		return e.health
	}
	if b.banned[id] {
		return Evicted
	}
	return HealthUnknown
}

// MarkSuspect records one audit strike against id (divergence or another
// soft, unproven signal). At the configured threshold the agent is
// quarantined. It returns the agent's resulting health, whether this call
// quarantined it, and whether the quarantine vacated an ACTIVE slot (the
// caller's cue to promote a standby). Unknown and already-quarantined IDs
// are unchanged.
func (b *AgentBook) MarkSuspect(id pkc.NodeID) (health AgentHealth, quarantined, wasActive bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.findLocked(id)
	if e == nil {
		if b.banned[id] {
			return Evicted, false, false
		}
		return HealthUnknown, false, false
	}
	if e.health == Quarantined {
		return Quarantined, false, false
	}
	e.health = Suspect
	e.strikes++
	if e.strikes >= defaultAuditQuarantineThreshold {
		_, wasActive = b.entries[id]
		b.quarantineLocked(id, e)
		return Quarantined, true, wasActive
	}
	return Suspect, false, false
}

// Rehabilitate clears a suspect back to healthy after a Matching re-audit.
// Only suspects rehabilitate: a quarantined agent got there on verified
// lying evidence (or a full strike count) and serving one honest bundle under
// observation does not undo that — selective honesty is exactly the attack
// probation exists to catch.
func (b *AgentBook) Rehabilitate(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.findLocked(id)
	if e == nil || e.health != Suspect {
		return false
	}
	e.health = Healthy
	e.strikes = 0
	return true
}

// Quarantine pulls id out of service immediately — the escalation for
// verified lying evidence, bypassing the strike ladder. The agent leaves the
// active book and the backup cache (so Agents(), promotion, and quorum never
// see it) but keeps its descriptor in the quarantine set for probation
// probes. It reports whether this call quarantined the agent, and whether it
// held an ACTIVE slot — the signal that the caller should promote a standby
// into the hole.
func (b *AgentBook) Quarantine(id pkc.NodeID) (quarantined, wasActive bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.findLocked(id)
	if e == nil || e.health == Quarantined {
		return false, false
	}
	_, wasActive = b.entries[id]
	b.quarantineLocked(id, e)
	return true, wasActive
}

// quarantineLocked moves e (id's entry) into the quarantine set. Called with
// b.mu held.
func (b *AgentBook) quarantineLocked(id pkc.NodeID, e *bookEntry) {
	delete(b.entries, id)
	for i, be := range b.backups {
		if be.info.ID() == id {
			b.backups = append(b.backups[:i], b.backups[i+1:]...)
			break
		}
	}
	e.health = Quarantined
	b.quarantined[id] = e
}

// Quarantined returns the quarantine set's agent IDs in stable order.
func (b *AgentBook) Quarantined() []pkc.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]pkc.NodeID, 0, len(b.quarantined))
	for id := range b.quarantined {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// QuarantinedInfo returns the descriptor of a quarantined agent, for
// probation probes.
func (b *AgentBook) QuarantinedInfo(id pkc.NodeID) (AgentInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.quarantined[id]; ok {
		return e.info, true
	}
	return AgentInfo{}, false
}

// Evict removes id from everywhere (active book, backups, quarantine), bans
// it, and clears its cached breaker/replica state. It reports whether the
// agent was tracked.
func (b *AgentBook) Evict(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.findLocked(id)
	if e == nil {
		return false
	}
	delete(b.entries, id)
	delete(b.quarantined, id)
	for i, be := range b.backups {
		if be.info.ID() == id {
			b.backups = append(b.backups[:i], b.backups[i+1:]...)
			break
		}
	}
	b.banned[id] = true
	b.clearStateLocked(id)
	return true
}

// EvaluateSubject asks the trusted agents in book for subject's trust value
// through onions and returns the expertise-weighted aggregate plus each
// agent's individual answer. Resilience semantics:
//
//   - Agents whose circuit breaker is open are skipped outright — no
//     timeout is paid for a peer already known dead. An open breaker past
//     its cooldown gets a single short half-open probe instead of a full
//     request.
//   - Every asked agent's outcome feeds its breaker. A failure that trips a
//     breaker open demotes the agent and promotes the healthiest backup in
//     its place (§3.4.3, §3.6) — the book heals as a side effect of use.
//   - The evaluation succeeds (nil error) when at least book.Quorum() agents
//     answer; below quorum the partial per-agent map and best-effort
//     aggregate are still returned alongside the error.
func (n *Node) EvaluateSubject(book *AgentBook, subject pkc.NodeID, replyOnion *onion.Onion) (trust.Value, map[pkc.NodeID]trust.Value, error) {
	agents := book.Agents()
	if len(agents) == 0 {
		return 0, nil, fmt.Errorf("node: agent book is empty")
	}
	// Every evaluated subject is audit-worthy: feed the auditor's rotating
	// sample pool (DESIGN.md §15) so sweeps audit what the node actually uses.
	n.NoteAuditSubjects(subject)
	type answer struct {
		id    pkc.NodeID
		v     trust.Value
		ok    bool
		asked bool
	}
	ch := make(chan answer, len(agents))
	for _, a := range agents {
		a := a
		id := a.ID()
		allow, probe := book.Allow(id)
		if !allow {
			ch <- answer{id: id} // breaker open: skipped, not failed
			continue
		}
		if probe {
			n.cnt.breakerHalf.Inc()
		}
		go func(probe bool) {
			var v trust.Value
			var err error
			if probe {
				v, _, err = n.requestTrust(a, subject, replyOnion, 1, n.opts.ProbeTimeout)
			} else {
				v, _, err = n.RequestTrust(a, subject, replyOnion)
			}
			ch <- answer{id: id, v: v, ok: err == nil, asked: true}
		}(probe)
	}
	perAgent := make(map[pkc.NodeID]trust.Value)
	var agg trust.Aggregate
	for range agents {
		ans := <-ch
		if !ans.asked {
			continue
		}
		if !ans.ok {
			n.noteFailure(book, ans.id)
			continue
		}
		n.noteSuccess(book, ans.id)
		perAgent[ans.id] = ans.v
		w, _ := book.Expertise(ans.id)
		agg.Add(ans.v, w)
	}
	v, ok := agg.Value()
	if !ok {
		v = trust.Value(math.NaN())
	}
	if q := book.Quorum(); len(perAgent) < q {
		return v, perAgent, fmt.Errorf("node: quorum not met: %d of %d agents answered, need %d", len(perAgent), len(agents), q)
	}
	return v, perAgent, nil
}

// CompleteTransaction finishes a live transaction: it updates every
// answering agent's expertise against the observed outcome and reports the
// outcome to all trusted agents (§3.6). Unanswering agents are NOT demoted
// here — their circuit breakers (fed by EvaluateSubject) decide that, so one
// dropped packet no longer costs an agent its slot. Reports that cannot be
// delivered — the agent's breaker is not closed, or the send fails — are
// queued in the node's durable outbox and re-sent by the background flusher
// once the agent recovers, instead of being silently discarded. It returns
// the IDs removed for poor expertise.
func (n *Node) CompleteTransaction(book *AgentBook, subject pkc.NodeID, outcome bool, perAgent map[pkc.NodeID]trust.Value) []pkc.NodeID {
	var removed []pkc.NodeID
	for _, a := range book.Agents() {
		id := a.ID()
		v, answered := perAgent[id]
		if !answered {
			continue
		}
		if book.RecordOutcome(id, v.Consistent(outcome)) {
			removed = append(removed, id)
		}
	}
	reported := make(map[pkc.NodeID]bool)
	for _, a := range book.Agents() {
		reported[a.ID()] = true
		_ = n.reportOrDefer(book, a, subject, outcome)
	}
	// Agents that served the evaluation but were demoted mid-transaction (a
	// tripped breaker) still get the outcome report — deferred through the
	// outbox until they recover, since a demoted agent keeps its report store
	// and may be restored (§3.4.3).
	for id := range perAgent {
		if reported[id] {
			continue
		}
		if info, ok := book.BackupInfo(id); ok {
			_ = n.reportOrDefer(book, info, subject, outcome)
		}
	}
	return removed
}

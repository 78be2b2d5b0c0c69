package node

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/trust"
)

// AgentBook is the live node's trusted-agent list (§3.4): a trust.List of
// up to max verified agent descriptors, with its expertise, backup-cache and
// ban rules, made safe for concurrent use.
//
// Each agent additionally carries a circuit breaker (closed → open after
// consecutive failures → half-open probe → closed again) so a dead agent is
// skipped instead of timing out every evaluation, and a quorum k: an
// evaluation that gathers at least k answers out of the book succeeds with
// partial results rather than failing on the first missing agent. Breaker
// state tracks reachability, not honesty, and is kept across demotion so a
// dead agent is not instantly re-promoted; it is forgotten when an ID leaves
// the list entirely, so a re-added agent starts with a clean slate.
type AgentBook struct {
	mu       sync.Mutex
	quorum   int
	list     *trust.List[pkc.NodeID, AgentInfo]
	breakers *resilience.Breakers[pkc.NodeID]
}

// NewAgentBook creates a book holding at most max agents, with expertise
// EWMA factor alpha and removal threshold.
func NewAgentBook(max int, alpha, threshold float64) (*AgentBook, error) {
	list, err := trust.NewList[pkc.NodeID, AgentInfo](max, alpha, threshold)
	if err != nil {
		return nil, fmt.Errorf("node: agent book: %w", err)
	}
	return &AgentBook{
		quorum:   1,
		list:     list,
		breakers: resilience.NewBreakers[pkc.NodeID](resilience.BreakerConfig{}),
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
// (§3.4.3). It reports whether the agent was added: descriptors failing
// verification are rejected, and so is whatever trust.List.Add refuses — an
// agent already active, backed up or banned, and a full book. A backup comes
// back through Restore, with the expertise it was demoted with.
func (b *AgentBook) Add(info AgentInfo) bool {
	if info.Onion == nil || info.Onion.VerifySig(info.SP) != nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.list.Add(info.ID(), info)
}

// Agents returns the current trusted agents, most expert first.
func (b *AgentBook) Agents() []AgentInfo {
	b.mu.Lock()
	rows := slices.Clone(b.list.Entries())
	b.mu.Unlock()
	sort.SliceStable(rows, func(i, j int) bool {
		if ei, ej := rows[i].Expertise.Value(), rows[j].Expertise.Value(); ei != ej {
			return ei > ej
		}
		return rows[i].ID.String() < rows[j].ID.String()
	})
	out := make([]AgentInfo, len(rows))
	for i, r := range rows {
		out[i] = r.Data
	}
	return out
}

// Len returns the number of trusted agents.
func (b *AgentBook) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.list.Entries())
}

// Expertise returns the tracked expertise of an agent.
func (b *AgentBook) Expertise(id pkc.NodeID) (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.list.Find(id); e != nil {
		return e.Expertise.Value(), true
	}
	return 0, false
}

// RecordOutcome folds one transaction's consistency observation into an
// agent's expertise (§3.4.3) and removes + bans the agent when it falls
// below the threshold. It reports whether the agent was removed.
func (b *AgentBook) RecordOutcome(id pkc.NodeID, consistent bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.list.Record(id, consistent) {
		return false
	}
	b.breakers.Forget(id) // banned agents never come back
	return true
}

// Demote moves an unresponsive agent to the backup cache when its expertise
// is positive, else drops it (§3.4.3's offline handling). It reports whether
// the agent was in the active book.
func (b *AgentBook) Demote(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	left, gone, ok := b.list.Demote(id)
	if gone {
		// Demotion INTO the backup cache keeps breaker state, so promotion
		// does not re-select an agent known dead; an ID that leaves the list
		// entirely must not leave it behind for a later re-add.
		b.breakers.Forget(left)
	}
	return ok
}

// AddBackup inserts a verified descriptor straight into the backup cache —
// a standby the book can promote when a trusted agent's breaker trips —
// without consuming an active slot. Bad descriptors are rejected, and so is
// whatever trust.List.AddBackup refuses: an ID already held, and a full
// cache.
func (b *AgentBook) AddBackup(info AgentInfo) bool {
	if info.Onion == nil || info.Onion.VerifySig(info.SP) != nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.list.AddBackup(info.ID(), info)
}

// BackupInfo returns the descriptor of a backup-cache agent.
func (b *AgentBook) BackupInfo(id pkc.NodeID) (AgentInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.list.Backups() {
		if e.ID == id {
			return e.Data, true
		}
	}
	return AgentInfo{}, false
}

// Restore moves a backup agent back into the book (after a successful
// probe); it reports success. A full book is refused.
func (b *AgentBook) Restore(id pkc.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.list.Restore(id)
}

// Backups returns the backup-cache agent IDs, most recently demoted first.
func (b *AgentBook) Backups() []pkc.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]pkc.NodeID, len(b.list.Backups()))
	for i, e := range b.list.Backups() {
		out[i] = e.ID
	}
	return out
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
//   - An agent with no reports about the subject abstains: it counts toward
//     quorum (it answered), but it is left out of the aggregate and out of
//     the per-agent map, so CompleteTransaction never scores its prior as a
//     prediction. When every answering agent abstains, the aggregate is the
//     uninformed prior, 0.5.
//   - The evaluation succeeds (nil error) when at least book.Quorum() agents
//     answer; below quorum the partial per-agent map and best-effort
//     aggregate are still returned alongside the error.
func (n *Node) EvaluateSubject(book *AgentBook, subject pkc.NodeID, replyOnion *onion.Onion) (trust.Value, map[pkc.NodeID]trust.Value, error) {
	agents := book.Agents()
	if len(agents) == 0 {
		return 0, nil, fmt.Errorf("node: agent book is empty")
	}
	type answer struct {
		id      pkc.NodeID
		v       trust.Value
		hasData bool
		ok      bool
		asked   bool
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
			var hasData bool
			var err error
			if probe {
				v, hasData, err = n.requestTrust(a, subject, replyOnion, 1, n.opts.ProbeTimeout)
			} else {
				v, hasData, err = n.RequestTrust(a, subject, replyOnion)
			}
			ch <- answer{id: id, v: v, hasData: hasData, ok: err == nil, asked: true}
		}(probe)
	}
	perAgent := make(map[pkc.NodeID]trust.Value)
	var agg trust.Aggregate
	answered := 0
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
		answered++
		if !ans.hasData {
			continue // an abstention: no opinion to aggregate or score
		}
		perAgent[ans.id] = ans.v
		w, _ := book.Expertise(ans.id)
		agg.Add(ans.v, w)
	}
	v, ok := agg.Value()
	switch {
	case ok:
	case answered > 0 && agg.N() == 0:
		v = 0.5 // every answering agent abstained
	default:
		v = trust.Value(math.NaN())
	}
	if q := book.Quorum(); answered < q {
		return v, perAgent, fmt.Errorf("node: quorum not met: %d of %d agents answered, need %d", answered, len(agents), q)
	}
	return v, perAgent, nil
}

// CompleteTransaction finishes a live transaction: it updates the expertise
// of every agent in perAgent (the agents that gave an opinion; abstainers
// are not in it) against the observed outcome and reports the outcome to
// all trusted agents (§3.6). An agent banned for poor expertise is replaced
// from the backup cache, as one whose breaker trips is. Unanswering agents
// are NOT demoted here — their circuit breakers (fed by EvaluateSubject)
// decide that, so one dropped packet no longer costs an agent its slot.
// Reports that cannot be delivered — the agent's breaker is not closed, or
// the send fails — are queued in the node's outbox and re-sent by the
// background flusher once the agent recovers, instead of being silently
// discarded. It returns the IDs removed for poor expertise.
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
			n.promoteBackup(book)
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

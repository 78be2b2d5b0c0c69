package core

import (
	"math"
	"sort"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
)

// This file implements the transaction loop of §3.5/§3.6: onion-routed trust
// value requests to the requestor's trusted agents, expertise-weighted
// aggregation, provider selection, expertise updates, list maintenance, and
// onion-routed transaction reports.

// TxResult summarizes one transaction for the experiment harness.
type TxResult struct {
	Requestor  topology.NodeID
	Candidates []topology.NodeID
	// Estimates holds the requestor's final estimated trust per candidate;
	// NaN when no agent offered an opinion.
	Estimates []trust.Value
	Chosen    topology.NodeID
	Outcome   bool
	// SqErr/SqN accumulate squared error between estimates and ground truth
	// over the candidates (the paper's MSE ingredient, §5.1). Candidates
	// without an estimate contribute the uninformed prior 0.5.
	SqErr float64
	SqN   int
	// ResponseTime is the span from sending the first trust request to
	// receiving the last trust response (§5.3's response-time definition).
	ResponseTime simnet.Time
	// TrustMessages counts trust-req/resp/report messages of this
	// transaction; MaintMessages counts refill traffic it triggered.
	TrustMessages int64
	MaintMessages int64
	// Responded is how many trusted agents answered.
	Responded int
}

// MSE returns the transaction's mean squared estimation error.
func (r TxResult) MSE() float64 {
	if r.SqN == 0 {
		return 0
	}
	return r.SqErr / float64(r.SqN)
}

// onTrustReq handles a trust-value request arriving at an agent (§3.5.2).
func (s *System) onTrustReq(nw *simnet.Network, m simnet.Message) {
	a := s.agents[m.To]
	if a == nil || a.down() {
		return // not an agent (stale list entry) or offline this transaction
	}
	p := m.Payload.(*trustReqPayload)
	start := len(s.ests)
	for _, c := range p.candidates {
		s.ests = append(s.ests, s.evaluate(a, c))
	}
	// Respond through the requestor's onion using a fresh envelope, the
	// "{SP_p(T), SP_e, Onion_e}" reply of §3.5.2. A record the arena has
	// already handed out stays valid when the arena grows: it keeps the old
	// backing array, and nothing writes it again this transaction.
	s.resps = append(s.resps, trustRespPayload{
		txID: p.txID, agent: m.To, estimates: s.ests[start:len(s.ests):len(s.ests)],
	})
	s.onionSend(m.To, kindTrustRespID, p.replyRoute, &s.resps[len(s.resps)-1])
}

// evaluate produces an agent's trust estimate for subject. Honest agents use
// accumulated transaction reports when available (the richer "next level
// computation model" of §4.2.3), otherwise their rating model; poor agents
// always evaluate inversely.
func (s *System) evaluate(a *agentState, subject topology.NodeID) trust.Value {
	if a.honest && s.cfg.Model != ModelRating {
		if v, ok := s.reportEstimate(a, subject); ok {
			return v
		}
	}
	return s.cfg.Rating.Evaluate(a.honest, s.oracle.Trustworthy(int(subject)), a.rng)
}

// reportEstimate computes an honest agent's report-based trust estimate for
// subject, per the configured model. ok is false when the agent lacks enough
// evidence and must fall back to its rating behaviour.
func (s *System) reportEstimate(a *agentState, subject topology.NodeID) (trust.Value, bool) {
	t, has := a.tallies[subject]
	if !has || t.pos+t.neg < minReports {
		return 0, false
	}
	if s.cfg.Model == ModelTally {
		return t.estimate(), true
	}
	// ModelCredibility: weight each reporter's per-subject rate by the
	// reporter's feedback credibility — how often its verdicts agree with
	// the rest of the agent's evidence (PeerTrust-style, §4.2.3). A liar
	// systematically contradicts the honest majority across subjects, so its
	// credibility collapses and its reports stop moving the estimate.
	// Reporters are walked in ID order so the float sums, and with them the
	// estimate's last bit, do not depend on map iteration order.
	var sumW, sumWV float64
	for _, reporter := range a.reporters {
		rt, ok := a.perReporter[reporter][subject]
		if !ok || rt.pos+rt.neg == 0 {
			continue
		}
		cred := a.credibility(reporter)
		sumW += cred
		sumWV += cred * float64(rt.estimate())
	}
	if sumW <= 0 {
		return t.estimate(), true
	}
	return trust.Value(sumWV / sumW), true
}

// credibility is the Jeffreys-smoothed fraction of the reporter's subjects
// on which its verdict majority agrees with the majority of everyone else's
// reports (the reporter's own contribution excluded to avoid
// self-agreement).
func (a *agentState) credibility(reporter topology.NodeID) float64 {
	agree, total := 0, 0
	for subject, rt := range a.perReporter[reporter] {
		if rt.pos == rt.neg {
			continue // no verdict from this reporter
		}
		at := a.tallies[subject]
		rest := tally{pos: at.pos - rt.pos, neg: at.neg - rt.neg}
		if rest.pos == rest.neg {
			continue // no independent verdict to compare with
		}
		total++
		if (rt.pos > rt.neg) == (rest.pos > rest.neg) {
			agree++
		}
	}
	return (float64(agree) + 0.5) / (float64(total) + 1)
}

// onTrustResp collects an agent's response at the requestor.
func (s *System) onTrustResp(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(*trustRespPayload)
	if s.curTx == nil || s.curTx.id != p.txID || m.To != s.curTx.requestor {
		return
	}
	if _, dup := s.curTx.responses[p.agent]; dup {
		return
	}
	s.curTx.responses[p.agent] = p.estimates
	s.curTx.lastResp = nw.Now()
}

// onReport stores a transaction report at an agent (§3.5.3).
func (s *System) onReport(m simnet.Message) {
	a := s.agents[m.To]
	if a == nil || a.down() {
		return
	}
	p := m.Payload.(*reportPayload)
	a.record(p.reporter, p.subject, p.positive)
}

// record stores one report in the agent's tallies, attributed to reporter for
// the credibility-weighted model.
func (a *agentState) record(reporter, subject topology.NodeID, positive bool) {
	t := a.tallies[subject]
	if positive {
		t.pos++
	} else {
		t.neg++
	}
	a.tallies[subject] = t
	bySubject := a.perReporter[reporter]
	if bySubject == nil {
		bySubject = make(map[topology.NodeID]tally)
		a.perReporter[reporter] = bySubject
		i := sort.Search(len(a.reporters), func(i int) bool { return a.reporters[i] >= reporter })
		a.reporters = append(a.reporters, 0)
		copy(a.reporters[i+1:], a.reporters[i:])
		a.reporters[i] = reporter
	}
	rt := bySubject[subject]
	if positive {
		rt.pos++
	} else {
		rt.neg++
	}
	bySubject[subject] = rt
}

// InjectReport stores one transaction report at agent directly, bypassing the
// simulated wire — the campaign driver's hook (internal/campaign) for
// coordinated attacker floods at 100k-node scale, where attacker traffic
// would otherwise dominate simulator time. It applies exactly onReport's
// logic. Returns false when agent is unknown or down, mirroring the silent
// drop a dead agent's wire would produce.
func (s *System) InjectReport(agent, reporter, subject topology.NodeID, positive bool) bool {
	a := s.agents[agent]
	if a == nil || a.down() {
		return false
	}
	a.record(reporter, subject, positive)
	return true
}

// ReportEstimateOf exposes agent's report-based trust estimate for subject as
// a read-only probe (ok=false when the agent is unknown, down, or lacks
// evidence) — the campaign scorer's window into what each honest agent would
// answer, without driving a transaction.
func (s *System) ReportEstimateOf(agent, subject topology.NodeID) (trust.Value, bool) {
	a := s.agents[agent]
	if a == nil || a.down() {
		return 0, false
	}
	return s.reportEstimate(a, subject)
}

// onProbe answers a backup-agent liveness probe. Probes and their acks go
// direct, not through onions, so the sender is all either needs to carry.
func (s *System) onProbe(nw *simnet.Network, m simnet.Message) {
	a := s.agents[m.To]
	if a == nil || a.down() {
		return
	}
	nw.SendKindBytes(m.To, m.From, kindProbeAckID, nil, probeSize())
}

// onProbeAck records a live backup agent. Probes go out only in refill,
// which drains the network before it reads acks.
func (s *System) onProbeAck(m simnet.Message) {
	s.acks[m.From] = true
}

// RunTransaction executes one complete transaction for requestor over the
// given provider candidates and returns its result. The simulator is driven
// to quiescence, so results are final when this returns.
func (s *System) RunTransaction(requestor topology.NodeID, candidates []topology.NodeID) TxResult {
	s.mustBeDrained()
	p := s.peers[requestor]
	trustBefore := trafficMessages(s.net)
	maintBefore := maintMessages(s.net)

	// Refresh per-transaction agent churn.
	if s.cfg.OfflineProb > 0 {
		for _, a := range s.agents {
			if a != nil {
				a.offline = s.crng.Bool(s.cfg.OfflineProb)
			}
		}
	}

	s.nextID++
	tx := &s.tx
	clear(tx.responses)
	tx.id, tx.requestor, tx.lastResp, tx.start = s.nextID, requestor, 0, s.net.Now()
	s.curTx = tx
	s.resps, s.ests = s.resps[:0], s.ests[:0]

	// §3.5.1: send the trust value request to every trusted agent through
	// the agent's onion; carry the requestor's own onion for the reply path.
	// Every agent gets the same request, so one record serves them all.
	s.trustReq = trustReqPayload{txID: tx.id, requestor: requestor, candidates: candidates, replyRoute: p.path}
	for _, e := range p.list.Entries() {
		s.onionSend(requestor, kindTrustReqID, e.Data, &s.trustReq)
	}
	s.net.Run(0)

	// Aggregate: expertise-weighted mean per candidate (§3.6: "computes the
	// final estimated trust value of the potential file providers").
	res := TxResult{
		Requestor:  requestor,
		Candidates: candidates,
		Estimates:  make([]trust.Value, len(candidates)),
		Responded:  len(tx.responses),
	}
	// The list is walked in its own order, not the response map's, so the
	// float sums are the same on every run.
	aggs := append(s.aggs[:0], make([]trust.Aggregate, len(candidates))...)
	s.aggs = aggs
	for _, e := range p.list.Entries() {
		ests, responded := tx.responses[e.ID]
		if !responded {
			continue
		}
		w := e.Expertise.Value()
		for i := range candidates {
			aggs[i].Add(ests[i], w)
		}
	}
	bestIdx, bestVal := -1, -1.0
	for i := range candidates {
		v, ok := aggs[i].Value()
		if !ok {
			res.Estimates[i] = trust.Value(math.NaN())
			// Uninformed prior for the error metric.
			d := 0.5 - float64(s.oracle.TrueValue(int(candidates[i])))
			res.SqErr += d * d
			res.SqN++
			continue
		}
		res.Estimates[i] = v
		d := float64(v) - float64(s.oracle.TrueValue(int(candidates[i])))
		res.SqErr += d * d
		res.SqN++
		if float64(v) > bestVal {
			bestVal, bestIdx = float64(v), i
		}
	}
	if bestIdx < 0 {
		bestIdx = p.rng.Intn(len(candidates)) // no opinions at all: blind pick
	}
	res.Chosen = candidates[bestIdx]
	res.Outcome = s.oracle.TransactionOutcome(int(res.Chosen))
	if tx.lastResp > 0 {
		res.ResponseTime = tx.lastResp - tx.start
	}
	s.curTx = nil

	// §3.4.3 maintenance: update expertise of responders on the chosen
	// provider's observed outcome, banning any that fall below the removal
	// threshold; handle non-responders as offline.
	ids := s.ids[:0]
	for _, e := range p.list.Entries() {
		ids = append(ids, e.ID)
	}
	s.ids = ids
	for _, id := range ids {
		if ests, responded := tx.responses[id]; responded {
			p.list.Record(id, ests[bestIdx].Consistent(res.Outcome))
		} else {
			p.list.Demote(id)
		}
	}

	// Refill when the list gets thin: probe backups first, then a new
	// agent-list request (§3.4.3).
	if len(p.list.Entries()) < s.cfg.RefillBelow {
		s.refill(requestor)
	}

	// §3.6: report the transaction result to all (current) trusted agents
	// through their onions. Under the §4.2.3 manipulation attack,
	// untrustworthy peers invert their reports.
	reported := res.Outcome
	if s.cfg.LyingReporters && !s.oracle.Trustworthy(int(requestor)) {
		reported = !res.Outcome
	}
	s.report = reportPayload{reporter: requestor, subject: res.Chosen, positive: reported}
	for _, e := range p.list.Entries() {
		s.onionSend(requestor, kindReportID, e.Data, &s.report)
	}
	s.net.Run(0)

	res.TrustMessages = trafficMessages(s.net) - trustBefore
	res.MaintMessages = maintMessages(s.net) - maintBefore
	return res
}

// refill probes backup agents and restores live ones, then tops the list up
// with a fresh agent-list walk if still below the trusted-agent target.
func (s *System) refill(id topology.NodeID) {
	p := s.peers[id]
	if len(p.list.Backups()) > 0 {
		clear(s.acks)
		for _, b := range p.list.Backups() {
			s.net.SendKindBytes(id, b.ID, kindProbeID, nil, probeSize())
		}
		s.net.Run(0)
		// Live backups rejoin in the cache's own order, most recently
		// demoted first, until the list is full: which ones rejoin must not
		// depend on map order. Restore edits the cache, so collect first.
		ids := s.ids[:0]
		for _, b := range p.list.Backups() {
			if s.acks[b.ID] {
				ids = append(ids, b.ID)
			}
		}
		s.ids = ids
		for _, b := range ids {
			p.list.Restore(b)
		}
	}
	if len(p.list.Entries()) < s.cfg.TrustedAgents {
		s.acquireAgents(id)
	}
}

// RunRandomTransaction picks a random requestor and candidate set and runs a
// transaction, the workload unit of §5.2 ("started with randomly selecting a
// peer as a potential service provider").
func (s *System) RunRandomTransaction() TxResult {
	n := s.net.Graph().N()
	requestor := topology.NodeID(s.wrng.Intn(n))
	return s.RunTransaction(requestor, s.PickCandidates(requestor))
}

// PickCandidates draws CandidatesPerTx distinct provider candidates != requestor.
func (s *System) PickCandidates(requestor topology.NodeID) []topology.NodeID {
	w := s.wrng
	n := s.net.Graph().N()
	out := make([]topology.NodeID, 0, s.cfg.CandidatesPerTx)
	for _, idx := range w.Choose(n-1, s.cfg.CandidatesPerTx) {
		id := topology.NodeID(idx)
		if id >= requestor {
			id++
		}
		out = append(out, id)
	}
	return out
}

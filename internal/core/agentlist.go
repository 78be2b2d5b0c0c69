package core

import (
	"cmp"
	"slices"

	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// Recommendation is one entry of a shared trusted-agent list: the agent's ID
// and the weight (expertise) the recommender assigns it (§3.4.1's
// {weight, agent nodeid, Onion_agent, SP_e} entry, reduced to the fields the
// ranking algorithm consumes).
type Recommendation struct {
	Agent  topology.NodeID
	Weight float64
}

// RankAgents implements §3.4.2: the requestor wants n agents. Within each
// received list, the agent with the greatest weight is ranked n, the second
// n-1, and so on; positions beyond the n-th rank 0. An agent recommended in
// several lists keeps its highest rank. The returned map carries each
// distinct agent's final rank.
//
// Ranking by per-list position rather than raw weight is what blunts
// bad-mouthing (§4.2.1): an attacker flooding low weights for a good agent
// cannot lower the agent's rank in honest lists, because only the maximum
// rank counts.
func RankAgents(lists [][]Recommendation, n int) map[topology.NodeID]int {
	ranks := make(map[topology.NodeID]int)
	var sorted []Recommendation
	for _, list := range lists {
		sorted = append(sorted[:0], list...)
		slices.SortStableFunc(sorted, func(a, b Recommendation) int { return cmp.Compare(b.Weight, a.Weight) })
		for i, rec := range sorted {
			rank := n - i
			if rank < 0 {
				rank = 0
			}
			if rank > ranks[rec.Agent] {
				ranks[rec.Agent] = rank
			}
		}
	}
	return ranks
}

// SelectAgents picks up to n agents by descending rank, breaking ties
// randomly (§3.4.2: "If several agents have the same rank, requestor picks up
// its trusted agents from them randomly"). exclude removes a node (the
// requestor itself) from consideration.
func SelectAgents(ranks map[topology.NodeID]int, n int, exclude topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	type ranked struct {
		id   topology.NodeID
		rank int
	}
	cands := make([]ranked, 0, len(ranks))
	for id, rank := range ranks {
		if id != exclude {
			cands = append(cands, ranked{id, rank})
		}
	}
	// Deterministic base order, then shuffle to randomize ties, then stable
	// sort by rank so equal-rank order stays random.
	slices.SortFunc(cands, func(a, b ranked) int { return cmp.Compare(a.id, b.id) })
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	slices.SortStableFunc(cands, func(a, b ranked) int { return cmp.Compare(b.rank, a.rank) })
	if len(cands) > n {
		cands = cands[:n]
	}
	ids := make([]topology.NodeID, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}

// agentEntry is one row of a peer's trusted-agent list.
type agentEntry struct {
	agent     topology.NodeID
	expertise *trust.Expertise
	route     []topology.NodeID // the agent's onion relays (agent last hop excluded)
}

// agentList is a peer's trusted-agent list plus the backup-agent cache of
// §3.4.3 (most-recently-demoted first).
type agentList struct {
	entries []*agentEntry
	backups []*agentEntry
	maxBack int
}

func newAgentList(maxBackups int) *agentList {
	return &agentList{maxBack: maxBackups}
}

// has reports whether agent is already a trusted agent.
func (l *agentList) has(agent topology.NodeID) bool {
	for _, e := range l.entries {
		if e.agent == agent {
			return true
		}
	}
	return false
}

// add appends a fresh entry with initial expertise 1 (§3.4.3). It is a no-op
// when the agent is already present.
func (l *agentList) add(agent topology.NodeID, route []topology.NodeID, alpha float64) {
	if l.has(agent) {
		return
	}
	exp, err := trust.NewExpertise(alpha)
	if err != nil {
		panic(err) // alpha validated by Config.Validate
	}
	l.entries = append(l.entries, &agentEntry{agent: agent, expertise: exp, route: route})
}

// backupEps is the floor below which an EWMA expertise counts as
// non-positive for §3.4.3's backup decision (the EWMA itself never reaches
// exactly zero).
const backupEps = 1e-6

// remove drops agent from the trusted list. When toBackup is true and the
// entry's expertise is positive, the entry moves to the front of the backup
// cache ("most recently first", §3.4.3); otherwise it is discarded.
func (l *agentList) remove(agent topology.NodeID, toBackup bool) {
	for i, e := range l.entries {
		if e.agent != agent {
			continue
		}
		l.entries = append(l.entries[:i], l.entries[i+1:]...)
		if toBackup && e.expertise.Value() > backupEps {
			l.backups = append([]*agentEntry{e}, l.backups...)
			if len(l.backups) > l.maxBack {
				l.backups = l.backups[:l.maxBack]
			}
		}
		return
	}
}

// restore moves a backup entry back into the trusted list (after a
// successful probe). It returns false if the agent is not in the backup
// cache.
func (l *agentList) restore(agent topology.NodeID) bool {
	for i, e := range l.backups {
		if e.agent != agent {
			continue
		}
		l.backups = append(l.backups[:i], l.backups[i+1:]...)
		l.entries = append(l.entries, e)
		return true
	}
	return false
}

// weights returns the list as recommendations for sharing with other peers.
func (l *agentList) weights() []Recommendation {
	out := make([]Recommendation, len(l.entries))
	for i, e := range l.entries {
		out[i] = Recommendation{Agent: e.agent, Weight: e.expertise.Value()}
	}
	return out
}

// find returns the entry for agent, or nil.
func (l *agentList) find(agent topology.NodeID) *agentEntry {
	for _, e := range l.entries {
		if e.agent == agent {
			return e
		}
	}
	return nil
}

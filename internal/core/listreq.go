package core

import (
	"hirep/internal/simnet"
	"hirep/internal/topology"
)

// This file implements the trusted-agent list request walk of §3.4.1 and
// Figure 4, plus bootstrap and refill built on it.
//
// A requestor emits an agent-list request carrying a token budget and a TTL.
// A node that can answer (it has a trusted-agent list, or it is itself a
// reputation agent and self-nominates) returns its recommendations directly
// to the requestor, consuming one token. Remaining tokens are split across
// the node's other neighbors while TTL lasts. Nodes answer a given request at
// most once; revisits drop the tokens, which is the token budget doing its
// job of bounding traffic.

// listCollect is the System's record of the agent-list walk in flight: the
// records its messages point to, the lists collected at the requestor and the
// scratch that ranks them. Everything in it is valid until the walk drains;
// the next walk overwrites it.
type listCollect struct {
	id uint64
	// reqs holds two request records per node. A node forwards at most once
	// per walk (listSeen) and sends one of only two token splits, base+1 and
	// base, so each split is one record shared by the messages carrying it.
	reqs []listReqPayload
	// resps holds one response record per node: a node answers at most once
	// per walk. Their recs are slices of the recs arena.
	resps   []listRespPayload
	recs    []Recommendation
	lists   [][]Recommendation
	targets []topology.NodeID
	rank    ranker
}

func newListCollect(n int) listCollect {
	return listCollect{reqs: make([]listReqPayload, 2*n), resps: make([]listRespPayload, n)}
}

// onListReq handles an incoming agent-list request at any node.
func (s *System) onListReq(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(*listReqPayload)
	if s.listSeen[m.To] == p.reqID {
		return // duplicate arrival: tokens die here
	}
	s.listSeen[m.To] = p.reqID
	w := &s.walk
	tokens := p.tokens
	// Answer if this node has something to offer and a token remains.
	if tokens > 0 && m.To != p.origin {
		start := len(w.recs)
		if s.peers[m.To].poisoner {
			// §4.2.1 attack: fabricate a list promoting colluding malicious
			// agents at maximum weight.
			w.recs = s.appendPoisoned(w.recs)
		} else {
			w.recs = s.peers[m.To].appendWeights(w.recs)
		}
		if len(w.recs) == start && s.agents[m.To] != nil {
			// §3.4.1: "The node can return its own nodeid if it has no
			// trusted agent list" — self-nomination with initial weight 1.
			w.recs = append(w.recs, Recommendation{Agent: m.To, Weight: 1})
		}
		if n := len(w.recs) - start; n > 0 {
			resp := &w.resps[m.To]
			*resp = listRespPayload{reqID: p.reqID, recs: w.recs[start:len(w.recs):len(w.recs)]}
			nw.SendKindBytes(m.To, p.origin, kindAgentListRespID, resp, listRespSize(n))
			tokens--
		}
	}
	if tokens <= 0 || p.ttl <= 1 {
		return
	}
	// Forward the remaining tokens, split across neighbors except the sender.
	targets := w.targets[:0]
	for _, nb := range s.net.Graph().Neighbors(m.To) {
		if nb != m.From {
			targets = append(targets, nb)
		}
	}
	w.targets = targets
	s.spreadWalk(m.To, targets, p.origin, p.reqID, tokens, p.ttl-1)
}

// spreadWalk forwards a walk from node from: targets are shuffled with from's
// stream and cut to at most tokens, and the tokens are split across them, the
// first tokens%len(targets) carrying one more. Every target so carries at
// least one token.
func (s *System) spreadWalk(from topology.NodeID, targets []topology.NodeID, origin topology.NodeID, reqID uint64, tokens, ttl int) {
	if len(targets) == 0 {
		return
	}
	s.peers[from].rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if len(targets) > tokens {
		targets = targets[:tokens]
	}
	base, extra := tokens/len(targets), tokens%len(targets)
	more, less := &s.walk.reqs[2*from], &s.walk.reqs[2*from+1]
	*more = listReqPayload{origin: origin, reqID: reqID, tokens: base + 1, ttl: ttl}
	*less = listReqPayload{origin: origin, reqID: reqID, tokens: base, ttl: ttl}
	for i, tgt := range targets {
		rec := less
		if i < extra {
			rec = more
		}
		s.net.SendKindBytes(from, tgt, kindAgentListReqID, rec, listReqSize())
	}
}

// appendPoisoned appends a fabricated list of colluding malicious agents at
// maximum weight (attackers know their cohort).
func (s *System) appendPoisoned(dst []Recommendation) []Recommendation {
	n := 0
	for i, a := range s.agents {
		if a != nil && !a.honest {
			dst = append(dst, Recommendation{Agent: topology.NodeID(i), Weight: 1})
			if n++; n >= s.cfg.TrustedAgents {
				break
			}
		}
	}
	return dst
}

// onListResp collects an agent-list response at the requestor.
func (s *System) onListResp(m simnet.Message) {
	p := m.Payload.(*listRespPayload)
	if s.curList == nil || s.curList.id != p.reqID {
		return // stale response from an earlier walk
	}
	s.curList.lists = append(s.curList.lists, p.recs)
}

// requestAgentLists runs one synchronous agent-list walk for peer id and
// returns the collected recommendation lists, valid until the next walk. It
// drives the simulator until the walk completes.
func (s *System) requestAgentLists(id topology.NodeID) [][]Recommendation {
	s.mustBeDrained()
	s.nextID++
	w := &s.walk
	w.id = s.nextID
	w.recs, w.lists = w.recs[:0], w.lists[:0]
	s.curList = w
	// §3.4.1/Figure 4: the requestor distributes the request with its tokens
	// to its neighbors. Seed the walk by treating the origin as visited.
	s.listSeen[id] = w.id
	w.targets = append(w.targets[:0], s.net.Graph().Neighbors(id)...)
	s.spreadWalk(id, w.targets, id, w.id, s.cfg.Tokens, s.cfg.TTL)
	s.net.Run(0)
	s.curList = nil
	return w.lists
}

// acquireAgents runs a list walk for peer id, ranks the recommendations
// (§3.4.2) and fills the peer's trusted-agent list up to the configured size.
func (s *System) acquireAgents(id topology.NodeID) int {
	p := s.peers[id]
	lists := s.requestAgentLists(id)
	r := &s.walk.rank
	r.rank(lists, s.cfg.TrustedAgents)
	// Never select a node that is not actually agent-capable: the walk only
	// nominates agents, but recommendations age.
	want := s.cfg.TrustedAgents - len(p.list.Entries())
	if want <= 0 {
		return 0
	}
	added := 0
	for _, agent := range r.selectAgents(id, p.rng) {
		if added >= want {
			break
		}
		if s.agents[agent] != nil && p.list.Add(agent, s.peers[agent].path) {
			added++
		}
	}
	return added
}

// Bootstrap builds every peer's initial trusted-agent list, in a random peer
// order so later peers benefit from earlier peers' lists (the
// recommendation propagation of §3.4.1). It returns the total maintenance
// messages spent.
func (s *System) Bootstrap() int64 {
	before := maintMessages(s.net)
	order := s.rng.Split("bootstrap").Perm(len(s.peers))
	for _, i := range order {
		s.acquireAgents(topology.NodeID(i))
	}
	return maintMessages(s.net) - before
}

// maintMessages sums the maintenance message counters.
func maintMessages(nw *simnet.Network) int64 {
	return nw.CountKind(kindAgentListReqID) + nw.CountKind(kindAgentListRespID) +
		nw.CountKind(kindProbeID) + nw.CountKind(kindProbeAckID)
}

// trafficMessages sums the trust-distribution message counters.
func trafficMessages(nw *simnet.Network) int64 {
	return nw.CountKind(kindTrustReqID) + nw.CountKind(kindTrustRespID) + nw.CountKind(kindReportID)
}

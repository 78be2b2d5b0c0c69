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

// onListReq handles an incoming agent-list request at any node.
func (s *System) onListReq(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(listReqPayload)
	if s.listSeen[m.To] == p.reqID {
		return // duplicate arrival: tokens die here
	}
	s.listSeen[m.To] = p.reqID
	tokens := p.tokens
	// Answer if this node has something to offer and a token remains.
	if tokens > 0 && m.To != p.origin {
		var recs []Recommendation
		if s.peers[m.To].poisoner {
			// §4.2.1 attack: fabricate a list promoting colluding malicious
			// agents at maximum weight.
			recs = s.poisonedRecommendations()
		} else {
			recs = s.peers[m.To].list.weights()
		}
		if len(recs) == 0 && s.agents[m.To] != nil {
			// §3.4.1: "The node can return its own nodeid if it has no
			// trusted agent list" — self-nomination with initial weight 1.
			recs = []Recommendation{{Agent: m.To, Weight: 1}}
		}
		if len(recs) > 0 {
			nw.SendKindBytes(m.To, p.origin, kindAgentListRespID,
				listRespPayload{reqID: p.reqID, recs: recs}, listRespSize(len(recs)))
			tokens--
		}
	}
	if tokens <= 0 || p.ttl <= 1 {
		return
	}
	// Forward the remaining tokens, split across neighbors except the sender.
	var targets []topology.NodeID
	for _, nb := range s.net.Graph().Neighbors(m.To) {
		if nb != m.From {
			targets = append(targets, nb)
		}
	}
	if len(targets) == 0 {
		return
	}
	rng := s.peers[m.To].rng
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if len(targets) > tokens {
		targets = targets[:tokens]
	}
	base := tokens / len(targets)
	extra := tokens % len(targets)
	for i, tgt := range targets {
		t := base
		if i < extra {
			t++
		}
		if t == 0 {
			continue
		}
		nw.SendKindBytes(m.To, tgt, kindAgentListReqID, listReqPayload{
			origin: p.origin, reqID: p.reqID, tokens: t, ttl: p.ttl - 1,
		}, listReqSize())
	}
}

// poisonedRecommendations fabricates a list of colluding malicious agents at
// maximum weight (attackers know their cohort).
func (s *System) poisonedRecommendations() []Recommendation {
	var recs []Recommendation
	for i, a := range s.agents {
		if a != nil && !a.honest {
			recs = append(recs, Recommendation{Agent: topology.NodeID(i), Weight: 1})
			if len(recs) >= s.cfg.TrustedAgents {
				break
			}
		}
	}
	return recs
}

// onListResp collects an agent-list response at the requestor.
func (s *System) onListResp(m simnet.Message) {
	p := m.Payload.(listRespPayload)
	if s.curList == nil || s.curList.id != p.reqID {
		return // stale response from an earlier walk
	}
	s.curList.lists = append(s.curList.lists, p.recs)
}

// requestAgentLists runs one synchronous agent-list walk for peer id and
// returns the collected recommendation lists. It drives the simulator until
// the walk completes.
func (s *System) requestAgentLists(id topology.NodeID) [][]Recommendation {
	s.nextID++
	reqID := s.nextID
	s.curList = &listCollect{id: reqID}
	p := s.peers[id]
	// §3.4.1/Figure 4: the requestor distributes the request with its tokens
	// to its neighbors. Seed the walk by treating the origin as visited.
	s.listSeen[id] = reqID
	neighbors := append([]topology.NodeID(nil), s.net.Graph().Neighbors(id)...)
	p.rng.Shuffle(len(neighbors), func(i, j int) { neighbors[i], neighbors[j] = neighbors[j], neighbors[i] })
	if len(neighbors) > s.cfg.Tokens {
		neighbors = neighbors[:s.cfg.Tokens]
	}
	if len(neighbors) > 0 {
		base := s.cfg.Tokens / len(neighbors)
		extra := s.cfg.Tokens % len(neighbors)
		for i, nb := range neighbors {
			t := base
			if i < extra {
				t++
			}
			s.net.SendKindBytes(id, nb, kindAgentListReqID, listReqPayload{
				origin: id, reqID: reqID, tokens: t, ttl: s.cfg.TTL,
			}, listReqSize())
		}
	}
	s.net.Run(0)
	lists := s.curList.lists
	s.curList = nil
	return lists
}

// acquireAgents runs a list walk for peer id, ranks the recommendations
// (§3.4.2) and fills the peer's trusted-agent list up to the configured size.
func (s *System) acquireAgents(id topology.NodeID) int {
	p := s.peers[id]
	lists := s.requestAgentLists(id)
	ranks := RankAgents(lists, s.cfg.TrustedAgents)
	// Never select a node that is not actually agent-capable: the walk only
	// nominates agents, but recommendations age.
	want := s.cfg.TrustedAgents - len(p.list.entries)
	if want <= 0 {
		return 0
	}
	added := 0
	for _, agent := range SelectAgents(ranks, len(ranks), id, p.rng) {
		if added >= want {
			break
		}
		if s.agents[agent] == nil || p.list.has(agent) || p.banned[agent] {
			continue
		}
		p.list.add(agent, s.relaysOf(agent), s.cfg.Alpha)
		added++
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
	var total int64
	for _, k := range MaintenanceKinds() {
		total += nw.Count(k)
	}
	return total
}

// trafficMessages sums the trust-distribution message counters.
func trafficMessages(nw *simnet.Network) int64 {
	var total int64
	for _, k := range TrafficKinds() {
		total += nw.Count(k)
	}
	return total
}

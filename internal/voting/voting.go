// Package voting implements the flooding-based polling baseline the paper
// compares against ("pure voting system", §5.2; called a polling system in
// P2PREP).
//
// A requestor floods a trust-value query with a TTL over the overlay; every
// node reached computes a trust value for the candidates from its own local
// experience (modelled by the rating model) and routes its vote back along
// the reverse query path, Gnutella-style. The requestor weighs all votes
// equally — the property that makes pure voting fragile as the malicious
// population grows (Figure 7), since "the trust value provided by each node
// is treated equally".
package voting

import (
	"fmt"
	"math"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// Message kinds for the polling protocol.
const (
	KindVoteReq  = "voting/trust-req"
	KindVoteResp = "voting/trust-resp"
)

// Interned kind IDs for the send fast path (simnet.InternKind).
var (
	kindVoteReqID  = simnet.InternKind(KindVoteReq)
	kindVoteRespID = simnet.InternKind(KindVoteResp)
)

// Config parameterizes the baseline.
type Config struct {
	// TTL bounds the query flood (the paper uses 4 in simulation because of
	// the network-size limit; 7 in deployed Gnutella).
	TTL int
	// MaliciousFrac is the fraction of nodes whose votes are inverted.
	MaliciousFrac float64
	// CandidatesPerTx matches the hiREP workload for fair comparison.
	CandidatesPerTx int
	// Rating is the per-node evaluation model.
	Rating trust.RatingModel
}

// DefaultConfig mirrors Table 1: TTL 4, 10% malicious voters.
func DefaultConfig() Config {
	return Config{TTL: 4, MaliciousFrac: 0.1, CandidatesPerTx: 3, Rating: trust.DefaultRatingModel()}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	switch {
	case c.TTL < 1:
		return fmt.Errorf("voting: TTL must be >= 1, got %d", c.TTL)
	case !(c.MaliciousFrac >= 0 && c.MaliciousFrac <= 1): // rejects NaN too
		return fmt.Errorf("voting: MaliciousFrac must be in [0,1], got %v", c.MaliciousFrac)
	case c.CandidatesPerTx < 1:
		return fmt.Errorf("voting: CandidatesPerTx must be >= 1, got %d", c.CandidatesPerTx)
	}
	return c.Rating.Validate()
}

// Payloads travel as pointers into per-node scratch owned by the System, so
// a poll allocates nothing per message. A node handles the first query it
// sees and no other, so it forwards once and votes once per poll: one query
// record and one vote record per node is all a poll can use.
type (
	// voteReqPayload is a query as one node sends it; every copy the node fans
	// out points at the same record. The parent chain is the flood tree: the
	// reverse route back to the requestor, nearest first, shared between
	// siblings instead of copied into each.
	voteReqPayload struct {
		node   topology.NodeID // the sender of these copies
		parent *voteReqPayload // the query node first received; nil at the requestor
		// depth is the number of nodes on the reverse route, node included:
		// a copy's receiver is depth hops from the requestor.
		depth int
	}
	// voteRespPayload is one voter's vote on its way down the reverse route.
	// It has exactly one message in flight at a time (or none, once lost or
	// delivered), so a relay forwards the payload itself after advancing at.
	voteRespPayload struct {
		votes []trust.Value
		at    *voteReqPayload // the hop the message in flight is addressed to
	}
)

// nodeScratch is one node's share of the poll in progress. It is reused by
// the next poll, which is safe only because RunTransaction drains the network
// before it returns: no message outlives its poll.
type nodeScratch struct {
	seen  uint64 // ID of the last poll whose query reached the node
	query voteReqPayload
	vote  voteRespPayload
}

// Wire-size estimates for the bytes view of the traffic experiments (same
// constants as the hiREP size model: 5-byte frames, 21-byte addresses,
// 20-byte node IDs).
//
// pathLen is the number of nodes on the reverse route the message carries.
func querySize(candidates, pathLen int) int {
	return 5 + 8 + 20*candidates + 8 + 21*pathLen + 16
}

func voteSize(candidates, pathLen int) int {
	return 5 + 8 + 20 + 8*candidates + 21*pathLen + 12
}

// pollState accumulates the poll in progress at the requestor.
type pollState struct {
	id         uint64
	candidates []topology.NodeID
	sums       []float64
	count      int
	lastResp   simnet.Time
}

// TxResult mirrors core.TxResult for the experiment harness.
type TxResult struct {
	Requestor     topology.NodeID
	Candidates    []topology.NodeID
	Estimates     []trust.Value
	Chosen        topology.NodeID
	Outcome       bool
	SqErr         float64
	SqN           int
	ResponseTime  simnet.Time
	TrustMessages int64
	Voters        int
}

// MSE returns the transaction's mean squared estimation error.
func (r TxResult) MSE() float64 {
	if r.SqN == 0 {
		return 0
	}
	return r.SqErr / float64(r.SqN)
}

// System is a pure-voting deployment over a simulated network.
type System struct {
	net       *simnet.Network
	oracle    *trust.Oracle
	cfg       Config
	rng       *xrand.RNG
	wrng      *xrand.RNG
	malicious []bool
	voterRNGs []*xrand.RNG
	nodes     []nodeScratch
	votes     []trust.Value // backing store of every nodes[i].vote.votes
	cur       pollState
}

// NewSystem builds the baseline over net with ground truth from oracle.
func NewSystem(net *simnet.Network, oracle *trust.Oracle, cfg Config, rng *xrand.RNG) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.Graph().N()
	if oracle.N() != n {
		return nil, fmt.Errorf("voting: oracle has %d nodes, graph has %d", oracle.N(), n)
	}
	s := &System{
		net:       net,
		oracle:    oracle,
		cfg:       cfg,
		rng:       rng.Split("voting"),
		malicious: make([]bool, n),
		voterRNGs: make([]*xrand.RNG, n),
		nodes:     make([]nodeScratch, n),
	}
	s.wrng = s.rng.Split("workload")
	roleRNG := s.rng.Split("roles")
	for i := 0; i < n; i++ {
		s.malicious[i] = roleRNG.Bool(cfg.MaliciousFrac)
		s.voterRNGs[i] = s.rng.SplitN("voter", i)
		net.SetHandler(topology.NodeID(i), s.dispatch)
	}
	return s, nil
}

// MaliciousCount returns how many nodes vote inversely.
func (s *System) MaliciousCount() int {
	c := 0
	for _, m := range s.malicious {
		if m {
			c++
		}
	}
	return c
}

func (s *System) dispatch(nw *simnet.Network, m simnet.Message) {
	switch m.KindID {
	case kindVoteReqID:
		s.onVoteReq(nw, m)
	case kindVoteRespID:
		s.onVoteResp(nw, m)
	}
}

// onVoteReq handles a flood arrival: first receipt votes and forwards;
// duplicates die (they were still counted as sent messages).
func (s *System) onVoteReq(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(*voteReqPayload)
	me := &s.nodes[m.To]
	if me.seen == s.cur.id {
		return
	}
	me.seen = s.cur.id
	// Vote: evaluate every candidate from local experience and send the vote
	// back along the reverse path.
	nc := len(s.cur.candidates)
	votes := s.votes[int(m.To)*nc:][:nc]
	for i, c := range s.cur.candidates {
		votes[i] = s.cfg.Rating.Evaluate(!s.malicious[m.To], s.oracle.Trustworthy(int(c)), s.voterRNGs[m.To])
	}
	me.vote = voteRespPayload{votes: votes, at: p}
	nw.SendKindBytes(m.To, p.node, kindVoteRespID, &me.vote, voteSize(nc, p.depth))
	// Forward while TTL lasts: this copy arrived on its hop number p.depth.
	if p.depth >= s.cfg.TTL {
		return
	}
	me.query = voteReqPayload{node: m.To, parent: p, depth: p.depth + 1}
	for _, nb := range s.net.Graph().Neighbors(m.To) {
		if nb == m.From {
			continue
		}
		nw.SendKindBytes(m.To, nb, kindVoteReqID, &me.query, querySize(nc, me.query.depth))
	}
}

// onVoteResp forwards a vote one reverse hop, or accumulates it at the
// requestor.
func (s *System) onVoteResp(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(*voteRespPayload)
	if next := p.at.parent; next != nil {
		// The route still to travel is the one next carries.
		p.at = next
		nw.SendKindBytes(m.To, next.node, kindVoteRespID, p, voteSize(len(p.votes), next.depth))
		return
	}
	for i, v := range p.votes {
		s.cur.sums[i] += float64(v)
	}
	s.cur.count++
	s.cur.lastResp = nw.Now()
}

// RunTransaction floods a poll for the candidates, waits for all votes, and
// selects the best candidate by the unweighted vote mean.
func (s *System) RunTransaction(requestor topology.NodeID, candidates []topology.NodeID) TxResult {
	if s.net.Pending() != 0 {
		// The per-node scratch is about to be reused; a message still in
		// flight would point into it.
		panic("voting: RunTransaction on a network with events pending")
	}
	before := s.net.CountKind(kindVoteReqID) + s.net.CountKind(kindVoteRespID)
	nc := len(candidates)
	if need := len(s.nodes) * nc; len(s.votes) < need {
		s.votes = make([]trust.Value, need)
	}
	// The sums buffer is reused, zeroed (append of a make extends in place).
	s.cur = pollState{id: s.cur.id + 1, candidates: candidates, sums: append(s.cur.sums[:0], make([]float64, nc)...)}
	poll := &s.cur
	root := &s.nodes[requestor]
	root.seen = poll.id
	root.query = voteReqPayload{node: requestor, depth: 1}
	start := s.net.Now()
	for _, nb := range s.net.Graph().Neighbors(requestor) {
		s.net.SendKindBytes(requestor, nb, kindVoteReqID, &root.query, querySize(nc, 1))
	}
	s.net.Run(0)

	res := TxResult{
		Requestor:  requestor,
		Candidates: candidates,
		Estimates:  make([]trust.Value, len(candidates)),
		Voters:     poll.count,
	}
	bestIdx, bestVal := -1, -1.0
	for i, c := range candidates {
		if poll.count == 0 {
			res.Estimates[i] = trust.Value(math.NaN())
			d := 0.5 - float64(s.oracle.TrueValue(int(c)))
			res.SqErr += d * d
			res.SqN++
			continue
		}
		v := trust.Value(poll.sums[i] / float64(poll.count))
		res.Estimates[i] = v
		d := float64(v) - float64(s.oracle.TrueValue(int(c)))
		res.SqErr += d * d
		res.SqN++
		if float64(v) > bestVal {
			bestVal, bestIdx = float64(v), i
		}
	}
	if bestIdx < 0 {
		bestIdx = s.wrng.Intn(len(candidates))
	}
	res.Chosen = candidates[bestIdx]
	res.Outcome = s.oracle.TransactionOutcome(int(res.Chosen))
	if poll.lastResp > 0 {
		res.ResponseTime = poll.lastResp - start
	}
	res.TrustMessages = s.net.CountKind(kindVoteReqID) + s.net.CountKind(kindVoteRespID) - before
	return res
}

// RunRandomTransaction mirrors the hiREP workload unit.
func (s *System) RunRandomTransaction() TxResult {
	n := s.net.Graph().N()
	requestor := topology.NodeID(s.wrng.Intn(n))
	return s.RunTransaction(requestor, s.PickCandidates(requestor))
}

// PickCandidates draws CandidatesPerTx distinct provider candidates != requestor.
func (s *System) PickCandidates(requestor topology.NodeID) []topology.NodeID {
	n := s.net.Graph().N()
	out := make([]topology.NodeID, 0, s.cfg.CandidatesPerTx)
	for _, idx := range s.wrng.Choose(n-1, s.cfg.CandidatesPerTx) {
		id := topology.NodeID(idx)
		if id >= requestor {
			id++
		}
		out = append(out, id)
	}
	return out
}

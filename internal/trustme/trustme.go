// Package trustme implements a TrustMe-style baseline (Singh & Liu, P2P'03),
// which the paper contrasts with hiREP in §2: trust values are stored at
// randomly assigned trust-holding agents (THAs) rather than self-selected
// trusted agents, and the protocol "deploys broadcasting twice" — the trust
// query is broadcast to the entire system so the subject's THAs can answer,
// and after each transaction the report is broadcast so the THAs can store
// it.
//
// The package exists to quantify the paper's qualitative claim that random
// THA assignment plus double broadcast scatters trust state across the whole
// system and keeps per-transaction traffic at flood scale, where hiREP's is
// O(c).
package trustme

import (
	"fmt"
	"math"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// Message kinds.
const (
	KindQuery     = "trustme/query"
	KindQueryResp = "trustme/query-resp"
	KindReport    = "trustme/report"
)

// Interned kind IDs for the send fast path (simnet.InternKind).
var (
	kindQueryID     = simnet.InternKind(KindQuery)
	kindQueryRespID = simnet.InternKind(KindQueryResp)
	kindReportID    = simnet.InternKind(KindReport)
)

// Config parameterizes the baseline.
type Config struct {
	// THAsPerPeer is how many trust-holding agents the bootstrap server
	// assigns to each peer.
	THAsPerPeer int
	// TTL bounds the two broadcasts; TrustMe floods the entire system, so
	// pick a TTL at least the network diameter for fidelity.
	TTL int
	// MaliciousFrac is the fraction of nodes that misbehave as THAs.
	MaliciousFrac float64
	// CandidatesPerTx matches the other systems' workload.
	CandidatesPerTx int
	// Rating is the fallback evaluation model for THAs without reports.
	Rating trust.RatingModel
}

// DefaultConfig returns a TrustMe configuration comparable to Table 1.
func DefaultConfig() Config {
	return Config{THAsPerPeer: 3, TTL: 7, MaliciousFrac: 0.1, CandidatesPerTx: 3, Rating: trust.DefaultRatingModel()}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	switch {
	case c.THAsPerPeer < 1:
		return fmt.Errorf("trustme: THAsPerPeer must be >= 1, got %d", c.THAsPerPeer)
	case c.TTL < 1:
		return fmt.Errorf("trustme: TTL must be >= 1, got %d", c.TTL)
	case c.MaliciousFrac < 0 || c.MaliciousFrac > 1:
		return fmt.Errorf("trustme: MaliciousFrac out of [0,1]: %v", c.MaliciousFrac)
	case c.CandidatesPerTx < 1:
		return fmt.Errorf("trustme: CandidatesPerTx must be >= 1, got %d", c.CandidatesPerTx)
	}
	return c.Rating.Validate()
}

type (
	queryPayload struct {
		pollID     uint64
		origin     topology.NodeID
		candidates []topology.NodeID
		ttl        int
	}
	queryRespPayload struct {
		pollID  uint64
		tha     topology.NodeID
		subject topology.NodeID
		value   trust.Value
	}
	reportPayload struct {
		subject  topology.NodeID
		positive bool
		ttl      int
		floodID  uint64
	}
)

type tally struct{ pos, neg int }

func (t tally) estimate() trust.Value {
	return trust.Value((float64(t.pos) + 0.5) / (float64(t.pos+t.neg) + 1))
}

type pollState struct {
	id       uint64
	byCand   map[topology.NodeID]*trust.Aggregate
	lastResp simnet.Time
	votes    int
}

// TxResult mirrors the other systems' per-transaction summary.
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
}

// MSE returns the transaction's mean squared estimation error.
func (r TxResult) MSE() float64 {
	if r.SqN == 0 {
		return 0
	}
	return r.SqErr / float64(r.SqN)
}

// System is a TrustMe deployment over a simulated network.
type System struct {
	net    *simnet.Network
	oracle *trust.Oracle
	cfg    Config
	rng    *xrand.RNG
	wrng   *xrand.RNG
	// thasOf[p] lists the THAs that hold p's trust value (bootstrap-server
	// assignment); thaRole[n] marks misbehaving THAs.
	thasOf    [][]topology.NodeID
	malicious []bool
	nodeRNGs  []*xrand.RNG
	tallies   []map[topology.NodeID]tally // per-THA stored reports
	seen      map[uint64]map[topology.NodeID]bool
	cur       *pollState
	nextID    uint64
}

// NewSystem builds the baseline; THA assignment emulates the bootstrap
// server's random choice.
func NewSystem(net *simnet.Network, oracle *trust.Oracle, cfg Config, rng *xrand.RNG) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.Graph().N()
	if oracle.N() != n {
		return nil, fmt.Errorf("trustme: oracle has %d nodes, graph has %d", oracle.N(), n)
	}
	if cfg.THAsPerPeer > n-1 {
		return nil, fmt.Errorf("trustme: %d THAs per peer exceed population", cfg.THAsPerPeer)
	}
	s := &System{
		net:       net,
		oracle:    oracle,
		cfg:       cfg,
		rng:       rng.Split("trustme"),
		thasOf:    make([][]topology.NodeID, n),
		malicious: make([]bool, n),
		nodeRNGs:  make([]*xrand.RNG, n),
		tallies:   make([]map[topology.NodeID]tally, n),
		seen:      make(map[uint64]map[topology.NodeID]bool),
	}
	s.wrng = s.rng.Split("workload")
	roleRNG := s.rng.Split("roles")
	assignRNG := s.rng.Split("tha-assign")
	for i := 0; i < n; i++ {
		s.malicious[i] = roleRNG.Bool(cfg.MaliciousFrac)
		s.nodeRNGs[i] = s.rng.SplitN("node", i)
		s.tallies[i] = make(map[topology.NodeID]tally)
		for _, idx := range assignRNG.Choose(n-1, cfg.THAsPerPeer) {
			id := topology.NodeID(idx)
			if id >= topology.NodeID(i) {
				id++
			}
			s.thasOf[i] = append(s.thasOf[i], id)
		}
		id := topology.NodeID(i)
		net.SetHandler(id, func(nw *simnet.Network, m simnet.Message) { s.dispatch(nw, m) })
	}
	return s, nil
}

// THAsOf exposes a peer's trust-holding agents for tests.
func (s *System) THAsOf(p topology.NodeID) []topology.NodeID {
	return append([]topology.NodeID(nil), s.thasOf[p]...)
}

func (s *System) dispatch(nw *simnet.Network, m simnet.Message) {
	switch m.KindID {
	case kindQueryID:
		s.onQuery(nw, m)
	case kindQueryRespID:
		s.onQueryResp(nw, m)
	case kindReportID:
		s.onReport(nw, m)
	}
}

// isTHAOf reports whether node holds subject's trust value.
func (s *System) isTHAOf(node, subject topology.NodeID) bool {
	for _, t := range s.thasOf[subject] {
		if t == node {
			return true
		}
	}
	return false
}

func (s *System) onQuery(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(queryPayload)
	seen := s.seen[p.pollID]
	if seen == nil {
		seen = make(map[topology.NodeID]bool)
		s.seen[p.pollID] = seen
	}
	if seen[m.To] {
		return
	}
	seen[m.To] = true
	for _, c := range p.candidates {
		if !s.isTHAOf(m.To, c) {
			continue
		}
		v := s.thaEstimate(m.To, c)
		nw.SendKind(m.To, p.origin, kindQueryRespID, queryRespPayload{pollID: p.pollID, tha: m.To, subject: c, value: v})
	}
	if p.ttl <= 1 {
		return
	}
	for _, nb := range s.net.Graph().Neighbors(m.To) {
		if nb != m.From {
			nw.SendKind(m.To, nb, kindQueryID, queryPayload{pollID: p.pollID, origin: p.origin, candidates: p.candidates, ttl: p.ttl - 1})
		}
	}
}

// thaEstimate is a THA's answer about a subject: stored reports when
// available (honest THAs), the rating model otherwise; misbehaving THAs
// answer inversely.
func (s *System) thaEstimate(tha, subject topology.NodeID) trust.Value {
	if !s.malicious[tha] {
		if t, ok := s.tallies[tha][subject]; ok && t.pos+t.neg >= 2 {
			return t.estimate()
		}
	}
	return s.cfg.Rating.Evaluate(!s.malicious[tha], s.oracle.Trustworthy(int(subject)), s.nodeRNGs[tha])
}

func (s *System) onQueryResp(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(queryRespPayload)
	if s.cur == nil || s.cur.id != p.pollID {
		return
	}
	agg, ok := s.cur.byCand[p.subject]
	if !ok {
		return
	}
	agg.Add(p.value, 1)
	s.cur.votes++
	s.cur.lastResp = nw.Now()
}

func (s *System) onReport(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(reportPayload)
	seen := s.seen[p.floodID]
	if seen == nil {
		seen = make(map[topology.NodeID]bool)
		s.seen[p.floodID] = seen
	}
	if seen[m.To] {
		return
	}
	seen[m.To] = true
	if s.isTHAOf(m.To, p.subject) {
		t := s.tallies[m.To][p.subject]
		if p.positive {
			t.pos++
		} else {
			t.neg++
		}
		s.tallies[m.To][p.subject] = t
	}
	if p.ttl <= 1 {
		return
	}
	for _, nb := range s.net.Graph().Neighbors(m.To) {
		if nb != m.From {
			nw.SendKind(m.To, nb, kindReportID, reportPayload{subject: p.subject, positive: p.positive, ttl: p.ttl - 1, floodID: p.floodID})
		}
	}
}

// RunTransaction performs TrustMe's double-broadcast transaction: query
// flood, THA responses, provider choice, then report flood.
func (s *System) RunTransaction(requestor topology.NodeID, candidates []topology.NodeID) TxResult {
	before := s.net.CountKind(kindQueryID) + s.net.CountKind(kindQueryRespID) + s.net.CountKind(kindReportID)
	s.nextID++
	poll := &pollState{id: s.nextID, byCand: make(map[topology.NodeID]*trust.Aggregate)}
	for _, c := range candidates {
		poll.byCand[c] = &trust.Aggregate{}
	}
	s.cur = poll
	s.seen[poll.id] = map[topology.NodeID]bool{requestor: true}
	start := s.net.Now()
	for _, nb := range s.net.Graph().Neighbors(requestor) {
		s.net.SendKind(requestor, nb, kindQueryID, queryPayload{pollID: poll.id, origin: requestor, candidates: candidates, ttl: s.cfg.TTL})
	}
	s.net.Run(0)
	s.cur = nil
	delete(s.seen, poll.id)

	res := TxResult{Requestor: requestor, Candidates: candidates, Estimates: make([]trust.Value, len(candidates))}
	bestIdx, bestVal := -1, -1.0
	for i, c := range candidates {
		v, ok := poll.byCand[c].Value()
		if !ok {
			res.Estimates[i] = trust.Value(math.NaN())
			d := 0.5 - float64(s.oracle.TrueValue(int(c)))
			res.SqErr += d * d
			res.SqN++
			continue
		}
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

	// Second broadcast: the transaction report floods so the chosen
	// provider's THAs can store it.
	s.nextID++
	s.seen[s.nextID] = map[topology.NodeID]bool{requestor: true}
	for _, nb := range s.net.Graph().Neighbors(requestor) {
		s.net.SendKind(requestor, nb, kindReportID, reportPayload{subject: res.Chosen, positive: res.Outcome, ttl: s.cfg.TTL, floodID: s.nextID})
	}
	s.net.Run(0)
	delete(s.seen, s.nextID)

	res.TrustMessages = s.net.CountKind(kindQueryID) + s.net.CountKind(kindQueryRespID) + s.net.CountKind(kindReportID) - before
	return res
}

// RunRandomTransaction mirrors the shared workload unit.
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

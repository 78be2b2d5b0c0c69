// Package rca implements the centralized corner of the paper's §3.1 design
// space: a single Reputation Computation Agent (Gupta et al., NOSSDAV'03,
// cited as [17]) that every peer reports to and queries.
//
// The paper argues that a centralized structure is "inevitably accompanied
// with the problems like traffic bottleneck and single point of failure"
// (§3.1). This package exists to measure that claim on the same simulator:
// per-transaction message counts are minimal (a handful of unicasts), but
// every message serializes through one node, so response time degrades with
// offered load — and killing the RCA kills the whole reputation system.
package rca

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
	KindQuery     = "rca/trust-req"
	KindQueryResp = "rca/trust-resp"
	KindReport    = "rca/report"
)

// Interned kind IDs for the send fast path (simnet.InternKind).
var (
	kindQueryID     = simnet.InternKind(KindQuery)
	kindQueryRespID = simnet.InternKind(KindQueryResp)
	kindReportID    = simnet.InternKind(KindReport)
)

// Config parameterizes the centralized baseline.
type Config struct {
	// Server is the node hosting the RCA (defaults to node 0).
	Server topology.NodeID
	// CandidatesPerTx matches the other systems' workload.
	CandidatesPerTx int
	// Rating is the server's fallback evaluation before reports accumulate.
	Rating trust.RatingModel
}

// DefaultConfig returns an RCA on node 0 with the Table 1 rating model.
func DefaultConfig() Config {
	return Config{Server: 0, CandidatesPerTx: 3, Rating: trust.DefaultRatingModel()}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	if c.CandidatesPerTx < 1 {
		return fmt.Errorf("rca: CandidatesPerTx must be >= 1, got %d", c.CandidatesPerTx)
	}
	return c.Rating.Validate()
}

type (
	queryPayload struct {
		id         uint64
		origin     topology.NodeID
		candidates []topology.NodeID
	}
	respPayload struct {
		id     uint64
		values []trust.Value
	}
	reportPayload struct {
		subject  topology.NodeID
		positive bool
	}
)

type tally struct{ pos, neg int }

func (t tally) estimate() trust.Value {
	return trust.Value((float64(t.pos) + 0.5) / (float64(t.pos+t.neg) + 1))
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

// System is a centralized-RCA deployment over a simulated network.
type System struct {
	net     *simnet.Network
	oracle  *trust.Oracle
	cfg     Config
	rng     *xrand.RNG
	wrng    *xrand.RNG
	srvRNG  *xrand.RNG
	tallies map[topology.NodeID]tally
	down    bool
	cur     *pending
	nextID  uint64
}

type pending struct {
	id       uint64
	values   []trust.Value
	answered bool
	lastResp simnet.Time
}

// NewSystem builds the baseline; the RCA lives on cfg.Server.
func NewSystem(net *simnet.Network, oracle *trust.Oracle, cfg Config, rng *xrand.RNG) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.Graph().N()
	if oracle.N() != n {
		return nil, fmt.Errorf("rca: oracle has %d nodes, graph has %d", oracle.N(), n)
	}
	if cfg.Server < 0 || int(cfg.Server) >= n {
		return nil, fmt.Errorf("rca: server %d out of range", cfg.Server)
	}
	s := &System{
		net:     net,
		oracle:  oracle,
		cfg:     cfg,
		rng:     rng.Split("rca"),
		tallies: make(map[topology.NodeID]tally),
	}
	s.wrng = s.rng.Split("workload")
	s.srvRNG = s.rng.Split("server")
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		net.SetHandler(id, func(nw *simnet.Network, m simnet.Message) { s.dispatch(nw, m) })
	}
	return s, nil
}

// KillServer takes the RCA down permanently — the single point of failure.
func (s *System) KillServer() { s.down = true }

func (s *System) dispatch(nw *simnet.Network, m simnet.Message) {
	switch m.KindID {
	case kindQueryID:
		s.onQuery(nw, m)
	case kindQueryRespID:
		s.onResp(nw, m)
	case kindReportID:
		s.onReport(m)
	}
}

func (s *System) onQuery(nw *simnet.Network, m simnet.Message) {
	if m.To != s.cfg.Server || s.down {
		return
	}
	p := m.Payload.(queryPayload)
	values := make([]trust.Value, len(p.candidates))
	for i, c := range p.candidates {
		if t, ok := s.tallies[c]; ok && t.pos+t.neg >= 2 {
			values[i] = t.estimate()
			continue
		}
		// The central server is an honest evaluator with the same rating
		// noise as any good agent before reports accumulate.
		values[i] = s.cfg.Rating.Evaluate(true, s.oracle.Trustworthy(int(c)), s.srvRNG)
	}
	nw.SendKind(m.To, p.origin, kindQueryRespID, respPayload{id: p.id, values: values})
}

func (s *System) onResp(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(respPayload)
	if s.cur == nil || s.cur.id != p.id {
		return
	}
	s.cur.values = p.values
	s.cur.answered = true
	s.cur.lastResp = nw.Now()
}

func (s *System) onReport(m simnet.Message) {
	if m.To != s.cfg.Server || s.down {
		return
	}
	p := m.Payload.(reportPayload)
	t := s.tallies[p.subject]
	if p.positive {
		t.pos++
	} else {
		t.neg++
	}
	s.tallies[p.subject] = t
}

// RunTransaction performs one centralized transaction: query the RCA,
// choose, report back. Three unicasts total.
func (s *System) RunTransaction(requestor topology.NodeID, candidates []topology.NodeID) TxResult {
	before := s.net.CountKind(kindQueryID) + s.net.CountKind(kindQueryRespID) + s.net.CountKind(kindReportID)
	s.nextID++
	s.cur = &pending{id: s.nextID}
	start := s.net.Now()
	s.net.SendKind(requestor, s.cfg.Server, kindQueryID, queryPayload{id: s.cur.id, origin: requestor, candidates: candidates})
	s.net.Run(0)

	res := TxResult{Requestor: requestor, Candidates: candidates, Estimates: make([]trust.Value, len(candidates))}
	bestIdx, bestVal := -1, -1.0
	for i, c := range candidates {
		if !s.cur.answered {
			res.Estimates[i] = trust.Value(math.NaN())
			d := 0.5 - float64(s.oracle.TrueValue(int(c)))
			res.SqErr += d * d
			res.SqN++
			continue
		}
		v := s.cur.values[i]
		res.Estimates[i] = v
		d := float64(v) - float64(s.oracle.TrueValue(int(c)))
		res.SqErr += d * d
		res.SqN++
		if float64(v) > bestVal {
			bestVal, bestIdx = float64(v), i
		}
	}
	if bestIdx < 0 {
		bestIdx = s.wrng.Intn(len(candidates)) // server down: blind pick
	}
	res.Chosen = candidates[bestIdx]
	res.Outcome = s.oracle.TransactionOutcome(int(res.Chosen))
	if s.cur.lastResp > 0 {
		res.ResponseTime = s.cur.lastResp - start
	}
	s.cur = nil
	s.net.SendKind(requestor, s.cfg.Server, kindReportID, reportPayload{subject: res.Chosen, positive: res.Outcome})
	s.net.Run(0)
	res.TrustMessages = s.net.CountKind(kindQueryID) + s.net.CountKind(kindQueryRespID) + s.net.CountKind(kindReportID) - before
	return res
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

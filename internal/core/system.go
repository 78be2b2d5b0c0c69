package core

import (
	"fmt"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// onionEnvelope carries a protocol message along an onion route. rest holds
// the hops still to visit; the final element is the true destination. Every
// hop is one simulator message, which is how onion forwarding enters the
// traffic counts exactly as in §4.1's 2c(o_i+o_j) analysis.
//
// An envelope has exactly one message in flight: a relay advances rest in
// place and re-sends the same pointer, and the final hop returns the record to
// the System's free list. rest aliases a published path, which is never
// written after NewSystem.
type onionEnvelope struct {
	rest  []topology.NodeID
	inner any
	// payloadSize is the sealed end-to-end payload's wire size, carried so
	// each forwarding hop can account its own on-wire size.
	payloadSize int
}

// Protocol payloads. They travel as pointers into records the System owns
// and are read-only once sent (DESIGN.md §6, "Payload ownership").
type (
	listReqPayload struct {
		origin topology.NodeID
		reqID  uint64
		tokens int
		ttl    int
	}
	listRespPayload struct {
		reqID uint64
		recs  []Recommendation
	}
	trustReqPayload struct {
		txID       uint64
		requestor  topology.NodeID
		candidates []topology.NodeID
		replyRoute []topology.NodeID
	}
	trustRespPayload struct {
		txID      uint64
		agent     topology.NodeID
		estimates []trust.Value
	}
	reportPayload struct {
		reporter topology.NodeID
		subject  topology.NodeID
		positive bool
	}
)

// tally accumulates transaction reports at an agent.
type tally struct{ pos, neg int }

// estimate is the Jeffreys-prior positive fraction (p+1/2)/(p+n+1); the
// lighter prior matters because with only a couple of reports a Laplace
// estimate sits closer to 0.5 than the agent's own rating model would.
func (t tally) estimate() trust.Value {
	return trust.Value((float64(t.pos) + 0.5) / (float64(t.pos+t.neg) + 1))
}

// minReports is how many reports an honest agent needs about a subject
// before it prefers report evidence over its rating model.
const minReports = 2

// agentState is the reputation-agent role of a node.
type agentState struct {
	honest  bool
	offline bool // refreshed per transaction when churn is enabled
	killed  bool // permanently down (DoS experiment)
	tallies map[topology.NodeID]tally
	// perReporter keeps reporter-attributed tallies for the
	// credibility-weighted model (reporter -> subject -> tally).
	perReporter map[topology.NodeID]map[topology.NodeID]tally
	// reporters is perReporter's key set in ascending order, the order the
	// credibility model sums in.
	reporters []topology.NodeID
	rng       *xrand.RNG
}

// down reports whether the agent cannot serve right now.
func (a *agentState) down() bool { return a.offline || a.killed }

// peerState is the general-peer role of a node (every node has one).
type peerState struct {
	id topology.NodeID
	// list holds the peer's trusted agents, each with its published onion
	// path (agent last; read-only), the backup cache and the agents banned
	// for poor expertise, so recommendations cannot re-inject them — the
	// peer "filtering out poor performance reputation agents based on its
	// own experience" (§4.2.2).
	list *trust.List[topology.NodeID, []topology.NodeID]
	// path is the peer's published onion: its relays, then the peer itself.
	// Senders to the peer and the peer's own reply onion alias it, so it is
	// never written after NewSystem.
	path     []topology.NodeID
	rng      *xrand.RNG
	poisoner bool // answers list requests with fabricated recommendations (§4.2.1)
}

// txCollect gathers one in-flight transaction's responses.
type txCollect struct {
	id        uint64
	requestor topology.NodeID
	responses map[topology.NodeID][]trust.Value
	lastResp  simnet.Time
	start     simnet.Time
}

// System is a complete hiREP deployment over a simulated network.
type System struct {
	net    *simnet.Network
	oracle *trust.Oracle
	cfg    Config
	rng    *xrand.RNG
	wrng   *xrand.RNG // workload stream (requestor/candidate draws)
	crng   *xrand.RNG // churn stream (per-transaction offline draws)

	peers  []*peerState
	agents []*agentState // nil for nodes without agent capability

	// listSeen holds, per node, the ID of the last agent-list walk that
	// reached it. A walk drains (Run(0)) before the next one starts, so one
	// stamp per node tells a revisit from a first arrival.
	listSeen []uint64

	// curTx and curList point at tx and walk while a transaction or an
	// agent-list walk is in flight.
	curTx   *txCollect
	curList *listCollect
	nextID  uint64

	// Records and scratch the System owns (DESIGN.md §6, "Payload
	// ownership"). Every transaction and walk drains the network before it
	// returns, so the next one may overwrite them.
	envFree  []*onionEnvelope
	tx       txCollect
	trustReq trustReqPayload
	report   reportPayload
	resps    []trustRespPayload // this transaction's trust responses
	ests     []trust.Value      // their estimates, len(candidates) each
	aggs     []trust.Aggregate
	ids      []topology.NodeID        // agents to score, or backups to restore
	acks     map[topology.NodeID]bool // live backups answering this refill's probes
	walk     listCollect
}

// NewSystem builds a hiREP system over net with ground truth from oracle.
// Roles (agent capability, honesty) are drawn from rng.
func NewSystem(net *simnet.Network, oracle *trust.Oracle, cfg Config, rng *xrand.RNG) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.Graph().N()
	if oracle.N() != n {
		return nil, fmt.Errorf("core: oracle has %d nodes, graph has %d", oracle.N(), n)
	}
	if cfg.OnionRelays > n-2 {
		return nil, fmt.Errorf("core: %d onion relays need more than %d nodes", cfg.OnionRelays, n)
	}
	s := &System{
		net:      net,
		oracle:   oracle,
		cfg:      cfg,
		rng:      rng.Split("hirep"),
		peers:    make([]*peerState, n),
		agents:   make([]*agentState, n),
		listSeen: make([]uint64, n),
		tx:       txCollect{responses: make(map[topology.NodeID][]trust.Value)},
		acks:     make(map[topology.NodeID]bool),
		walk:     newListCollect(n),
	}
	s.wrng = s.rng.Split("workload")
	s.crng = s.rng.Split("churn")
	roleRNG := s.rng.Split("roles")
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		list, err := trust.NewList[topology.NodeID, []topology.NodeID](cfg.TrustedAgents, cfg.Alpha, cfg.RemoveThreshold)
		if err != nil {
			panic(err) // validated by Config.Validate
		}
		s.peers[i] = &peerState{
			id:       id,
			list:     list,
			rng:      s.rng.SplitN("peer", i),
			poisoner: cfg.PoisonFrac > 0 && roleRNG.Bool(cfg.PoisonFrac),
		}
		s.peers[i].path = s.pickPath(id, s.peers[i].rng)
		if roleRNG.Bool(cfg.AgentFrac) {
			s.agents[i] = &agentState{
				honest:      !roleRNG.Bool(cfg.MaliciousFrac),
				tallies:     make(map[topology.NodeID]tally),
				perReporter: make(map[topology.NodeID]map[topology.NodeID]tally),
				rng:         s.rng.SplitN("agent", i),
			}
		}
	}
	// Guarantee at least one honest and one agent overall so tiny test
	// networks remain usable.
	if s.AgentCount() == 0 {
		s.agents[0] = &agentState{
			honest:      true,
			tallies:     make(map[topology.NodeID]tally),
			perReporter: make(map[topology.NodeID]map[topology.NodeID]tally),
			rng:         s.rng.SplitN("agent", 0),
		}
	}
	for i := range s.peers {
		net.SetHandler(topology.NodeID(i), s.dispatch)
	}
	return s, nil
}

// pickPath draws OnionRelays distinct relays != self and returns them
// followed by self: the onion path that reaches self.
func (s *System) pickPath(self topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	n := s.net.Graph().N()
	path := make([]topology.NodeID, 0, s.cfg.OnionRelays+1)
	for _, idx := range rng.Choose(n-1, s.cfg.OnionRelays) {
		id := topology.NodeID(idx)
		if id >= self {
			id++ // skip self while keeping the draw uniform over others
		}
		path = append(path, id)
	}
	return append(path, self)
}

// AgentCount returns how many nodes have agent capability.
func (s *System) AgentCount() int {
	c := 0
	for _, a := range s.agents {
		if a != nil {
			c++
		}
	}
	return c
}

// HonestAgentCount returns how many agents evaluate honestly.
func (s *System) HonestAgentCount() int {
	c := 0
	for _, a := range s.agents {
		if a != nil && a.honest {
			c++
		}
	}
	return c
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Net returns the underlying simulator (for counter snapshots in harnesses).
func (s *System) Net() *simnet.Network { return s.net }

// TrustedAgentsOf returns the current trusted-agent IDs of a peer.
func (s *System) TrustedAgentsOf(id topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(s.peers[id].list.Entries()))
	for _, e := range s.peers[id].list.Entries() {
		out = append(out, e.ID)
	}
	return out
}

// BackupCountOf returns the size of a peer's backup-agent cache.
func (s *System) BackupCountOf(id topology.NodeID) int {
	return len(s.peers[id].list.Backups())
}

// AgentIDs returns every agent-capable node ID in ascending order.
func (s *System) AgentIDs() []topology.NodeID {
	var ids []topology.NodeID
	for i, a := range s.agents {
		if a != nil {
			ids = append(ids, topology.NodeID(i))
		}
	}
	return ids
}

// IsHonestAgent reports whether node id is an honest reputation agent.
func (s *System) IsHonestAgent(id topology.NodeID) bool {
	return s.agents[id] != nil && s.agents[id].honest
}

// IsAgent reports whether node id has reputation-agent capability.
func (s *System) IsAgent(id topology.NodeID) bool { return s.agents[id] != nil }

// KillAgents permanently disables frac of the currently honest agents with
// the highest exposure (most public-key registrations stand in for "high
// performance"), emulating the targeted DoS attack of §4.2.4. It returns the
// IDs taken down.
func (s *System) KillAgents(frac float64) []topology.NodeID {
	var honest []topology.NodeID
	for i, a := range s.agents {
		if a != nil && a.honest && !a.killed {
			honest = append(honest, topology.NodeID(i))
		}
	}
	kill := int(float64(len(honest)) * frac)
	victims := make([]topology.NodeID, 0, kill)
	kr := s.rng.Split("dos")
	for _, idx := range kr.Choose(len(honest), kill) {
		id := honest[idx]
		s.agents[id].killed = true
		victims = append(victims, id)
	}
	return victims
}

// ExpertiseOf returns a peer's expertise value for one of its trusted agents.
func (s *System) ExpertiseOf(peer, agent topology.NodeID) (float64, bool) {
	if e := s.peers[peer].list.Find(agent); e != nil {
		return e.Expertise.Value(), true
	}
	return 0, false
}

// dispatch routes a delivered message to its protocol handler, unwrapping
// onion envelopes.
func (s *System) dispatch(nw *simnet.Network, m simnet.Message) {
	if env, ok := m.Payload.(*onionEnvelope); ok {
		if len(env.rest) > 0 {
			size := onionHopSize(len(env.rest), env.payloadSize)
			next := env.rest[0]
			env.rest = env.rest[1:]
			nw.SendKindBytes(m.To, next, m.KindID, env, size)
			return
		}
		m.Payload = env.inner
		*env = onionEnvelope{} // a stale reference to a freed record fails loudly
		s.envFree = append(s.envFree, env)
	}
	switch m.KindID {
	case kindAgentListReqID:
		s.onListReq(nw, m)
	case kindAgentListRespID:
		s.onListResp(m)
	case kindTrustReqID:
		s.onTrustReq(nw, m)
	case kindTrustRespID:
		s.onTrustResp(nw, m)
	case kindReportID:
		s.onReport(m)
	case kindProbeID:
		s.onProbe(nw, m)
	case kindProbeAckID:
		s.onProbeAck(m)
	}
}

// onionSend launches a message along path (every element a hop, the last the
// destination). Each hop is one counted message. A hop the loss model drops
// leaves its envelope to the garbage collector.
func (s *System) onionSend(from topology.NodeID, kind simnet.Kind, path []topology.NodeID, inner any) {
	if len(path) == 0 {
		panic("core: empty onion path")
	}
	var env *onionEnvelope
	if k := len(s.envFree); k > 0 {
		env, s.envFree = s.envFree[k-1], s.envFree[:k-1]
	} else {
		env = new(onionEnvelope)
	}
	ps := s.payloadSize(inner)
	*env = onionEnvelope{rest: path[1:], inner: inner, payloadSize: ps}
	s.net.SendKindBytes(from, path[0], kind, env, onionHopSize(len(path), ps))
}

// mustBeDrained panics unless the network is idle: the System's records are
// reusable only once no message still refers to them.
func (s *System) mustBeDrained() {
	if s.net.Pending() != 0 {
		panic("core: transaction or agent-list walk started with events pending")
	}
}

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
type onionEnvelope struct {
	rest  []topology.NodeID
	inner any
	// payloadSize is the sealed end-to-end payload's wire size, carried so
	// each forwarding hop can account its own on-wire size.
	payloadSize int
}

// Protocol payloads.
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
	probePayload struct {
		origin topology.NodeID
		agent  topology.NodeID
	}
	probeAckPayload struct {
		agent topology.NodeID
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
	id       topology.NodeID
	list     *agentList
	route    []topology.NodeID // the peer's own onion relays
	rng      *xrand.RNG
	poisoner bool // answers list requests with fabricated recommendations (§4.2.1)
	// banned remembers agents removed for poor expertise so recommendations
	// cannot re-inject them — the peer "filtering out poor performance
	// reputation agents based on its own experience" (§4.2.2).
	banned map[topology.NodeID]bool
}

// txCollect gathers one in-flight transaction's responses.
type txCollect struct {
	id         uint64
	requestor  topology.NodeID
	candidates []topology.NodeID
	expect     int
	responses  map[topology.NodeID][]trust.Value
	lastResp   simnet.Time
	start      simnet.Time
}

// listCollect gathers one in-flight agent-list request's responses.
type listCollect struct {
	id    uint64
	lists [][]Recommendation
}

// probeCollect gathers probe acknowledgements.
type probeCollect struct {
	acks map[topology.NodeID]bool
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

	curTx    *txCollect
	curList  *listCollect
	curProbe *probeCollect
	nextID   uint64
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
	}
	s.wrng = s.rng.Split("workload")
	s.crng = s.rng.Split("churn")
	roleRNG := s.rng.Split("roles")
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		s.peers[i] = &peerState{
			id:       id,
			list:     newAgentList(cfg.TrustedAgents),
			rng:      s.rng.SplitN("peer", i),
			poisoner: cfg.PoisonFrac > 0 && roleRNG.Bool(cfg.PoisonFrac),
			banned:   make(map[topology.NodeID]bool),
		}
		s.peers[i].route = s.pickRelays(id, s.peers[i].rng)
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
		id := topology.NodeID(i)
		net.SetHandler(id, func(nw *simnet.Network, m simnet.Message) { s.dispatch(nw, m) })
	}
	return s, nil
}

// pickRelays draws OnionRelays distinct relays != self.
func (s *System) pickRelays(self topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	n := s.net.Graph().N()
	route := make([]topology.NodeID, 0, s.cfg.OnionRelays)
	for _, idx := range rng.Choose(n-1, s.cfg.OnionRelays) {
		id := topology.NodeID(idx)
		if id >= self {
			id++ // skip self while keeping the draw uniform over others
		}
		route = append(route, id)
	}
	return route
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
	out := make([]topology.NodeID, 0, len(s.peers[id].list.entries))
	for _, e := range s.peers[id].list.entries {
		out = append(out, e.agent)
	}
	return out
}

// BackupCountOf returns the size of a peer's backup-agent cache.
func (s *System) BackupCountOf(id topology.NodeID) int {
	return len(s.peers[id].list.backups)
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
	if e := s.peers[peer].list.find(agent); e != nil {
		return e.expertise.Value(), true
	}
	return 0, false
}

// Dispatch processes one simulator message addressed to this system's
// protocol. It is exported so callers can compose hiREP with other protocols
// (e.g. the gnutella query substrate) on the same network by installing a
// combined handler that routes by message kind.
func (s *System) Dispatch(nw *simnet.Network, m simnet.Message) { s.dispatch(nw, m) }

// dispatch routes a delivered message to its protocol handler, unwrapping
// onion envelopes.
func (s *System) dispatch(nw *simnet.Network, m simnet.Message) {
	if env, ok := m.Payload.(onionEnvelope); ok {
		if len(env.rest) > 0 {
			next := env.rest[0]
			fwd := onionEnvelope{rest: env.rest[1:], inner: env.inner, payloadSize: env.payloadSize}
			nw.SendKindBytes(m.To, next, m.KindID, fwd, onionHopSize(len(env.rest), env.payloadSize))
			return
		}
		m.Payload = env.inner
	}
	switch m.Kind {
	case KindAgentListReq:
		s.onListReq(nw, m)
	case KindAgentListResp:
		s.onListResp(m)
	case KindTrustReq:
		s.onTrustReq(nw, m)
	case KindTrustResp:
		s.onTrustResp(nw, m)
	case KindReport:
		s.onReport(m)
	case KindProbe:
		s.onProbe(nw, m)
	case KindProbeAck:
		s.onProbeAck(m)
	}
}

// onionSend launches a message along path (every element a hop, the last the
// destination). Each hop is one counted message.
func (s *System) onionSend(from topology.NodeID, kind simnet.Kind, path []topology.NodeID, inner any) {
	if len(path) == 0 {
		panic("core: empty onion path")
	}
	ps := s.payloadSize(inner)
	env := onionEnvelope{rest: path[1:], inner: inner, payloadSize: ps}
	s.net.SendKindBytes(from, path[0], kind, env, onionHopSize(len(path), ps))
}

// relaysOf returns a copy of dst's published onion relays (excluding dst);
// senders append dst to form the full delivery path.
func (s *System) relaysOf(dst topology.NodeID) []topology.NodeID {
	return append([]topology.NodeID(nil), s.peers[dst].route...)
}

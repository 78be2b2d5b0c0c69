package node

import (
	"fmt"
	"time"

	"hirep/internal/onion"
	"hirep/internal/resilience"
)

// This file is the shared live-fleet harness: agents + relays + peers on real
// loopback TCP behind one optional fault-injection dialer. It was factored
// out of the chaos/churn/failover tests so the adversarial campaign
// driver's live backend (internal/campaign, DESIGN.md §13) runs attacks
// against exactly the topology the resilience tests exercise. The API returns
// errors instead of taking a testing.T — tests wrap it, the campaign CLI
// calls it directly.

// ChaosOptions is the canonical chaos-grade node configuration used by the
// resilience tests and campaign fleets: tight timeouts so faults surface
// in-test, a fast breaker, an eager outbox flusher, and — when fd is non-nil
// — every dial routed through the shared fault dialer.
func ChaosOptions(fd *resilience.FaultDialer) Options {
	opts := Options{
		Timeout:             700 * time.Millisecond,
		ProbeTimeout:        400 * time.Millisecond,
		Retry:               resilience.RetryPolicy{Attempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		Breaker:             resilience.BreakerConfig{Threshold: 2, Cooldown: 200 * time.Millisecond},
		OutboxFlushInterval: 50 * time.Millisecond,
	}
	if fd != nil {
		opts.Dialer = fd.Dial
	}
	return opts
}

// FleetConfig sizes a StartFleet run.
type FleetConfig struct {
	Agents int // reputation agents (Options.Agent set)
	Relays int // plain relays for onion routes (defaults to 1)
	Peers  int // requestor/reporter nodes

	// Faults, when non-nil, is the shared fault-injection dialer every node
	// dials through — the campaign driver black-holes and revives nodes by
	// address on it mid-run.
	Faults *resilience.FaultDialer

	// Opts is the base Options for every node. A zero Timeout means "use
	// ChaosOptions(Faults)". The Agent flag is set per role regardless.
	Opts Options

	// AgentOpts, when non-nil, tweaks agent i's options before Listen — store
	// dirs, evidence caps.
	AgentOpts func(i int, opts *Options)
}

// Fleet is a running set of live nodes.
type Fleet struct {
	Agents []*Node
	Relays []*Node
	Peers  []*Node
	Faults *resilience.FaultDialer
}

// StartFleet starts cfg's nodes on loopback. On error every node already
// started is closed.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Relays <= 0 {
		cfg.Relays = 1
	}
	base := cfg.Opts
	if base.Timeout == 0 {
		base = ChaosOptions(cfg.Faults)
	} else if cfg.Faults != nil && base.Dialer == nil {
		base.Dialer = cfg.Faults.Dial
	}
	f := &Fleet{Faults: cfg.Faults}
	start := func(opts Options) (*Node, error) {
		nd, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		return nd, nil
	}
	for i := 0; i < cfg.Agents; i++ {
		opts := base
		opts.Agent = true
		if cfg.AgentOpts != nil {
			cfg.AgentOpts(i, &opts)
		}
		nd, err := start(opts)
		if err != nil {
			return nil, fmt.Errorf("node: fleet agent %d: %w", i, err)
		}
		f.Agents = append(f.Agents, nd)
	}
	for i := 0; i < cfg.Relays; i++ {
		opts := base
		opts.Agent = false
		nd, err := start(opts)
		if err != nil {
			return nil, fmt.Errorf("node: fleet relay %d: %w", i, err)
		}
		f.Relays = append(f.Relays, nd)
	}
	for i := 0; i < cfg.Peers; i++ {
		opts := base
		opts.Agent = false
		nd, err := start(opts)
		if err != nil {
			return nil, fmt.Errorf("node: fleet peer %d: %w", i, err)
		}
		f.Peers = append(f.Peers, nd)
	}
	return f, nil
}

// Close shuts down every node in the fleet.
func (f *Fleet) Close() error {
	var first error
	for _, group := range [][]*Node{f.Agents, f.Relays, f.Peers} {
		for _, nd := range group {
			if err := nd.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// route runs the Figure 3 handshake from `from` against every relay.
func (f *Fleet) route(from *Node) ([]onion.Relay, error) {
	route := make([]onion.Relay, len(f.Relays))
	for i, r := range f.Relays {
		rel, err := from.FetchAnonKey(r.Addr())
		if err != nil {
			return nil, fmt.Errorf("node: fleet handshake with relay %d: %w", i, err)
		}
		route[i] = rel
	}
	return route, nil
}

// AgentInfo publishes agent a's descriptor with an onion routed through every
// fleet relay.
func (f *Fleet) AgentInfo(a *Node) (AgentInfo, error) {
	route, err := f.route(a)
	if err != nil {
		return AgentInfo{}, err
	}
	o, err := a.BuildOnion(route)
	if err != nil {
		return AgentInfo{}, err
	}
	return a.Info(o), nil
}

// AgentInfos publishes every agent's descriptor, index-aligned with
// f.Agents.
func (f *Fleet) AgentInfos() ([]AgentInfo, error) {
	infos := make([]AgentInfo, len(f.Agents))
	for i, a := range f.Agents {
		info, err := f.AgentInfo(a)
		if err != nil {
			return nil, err
		}
		infos[i] = info
	}
	return infos, nil
}

// ReplyOnion builds peer's reply route through the fleet's last relay.
func (f *Fleet) ReplyOnion(peer *Node) (*onion.Onion, error) {
	r := f.Relays[len(f.Relays)-1]
	rel, err := peer.FetchAnonKey(r.Addr())
	if err != nil {
		return nil, err
	}
	return peer.BuildOnion([]onion.Relay{rel})
}

// Book builds an AgentBook holding the first nPrimary infos as trusted
// agents and the rest as standby backups, with the given quorum.
func (f *Fleet) Book(infos []AgentInfo, nPrimary, quorum int) (*AgentBook, error) {
	book, err := NewAgentBook(len(infos), 0.3, 0.4)
	if err != nil {
		return nil, err
	}
	for i, info := range infos {
		if i < nPrimary {
			if !book.Add(info) {
				return nil, fmt.Errorf("node: fleet book rejected agent %d", i)
			}
		} else if !book.AddBackup(info) {
			return nil, fmt.Errorf("node: fleet book rejected backup %d", i)
		}
	}
	book.SetQuorum(quorum)
	return book, nil
}

// BlackHole silently swallows all traffic to nd — the worst failure mode for
// an onion-routed protocol, because sends keep "succeeding". Requires a
// Faults dialer.
func (f *Fleet) BlackHole(nd *Node) error {
	if f.Faults == nil {
		return fmt.Errorf("node: fleet has no fault dialer")
	}
	f.Faults.BlackHole(nd.Addr())
	return nil
}

// revive clears every fault rule against nd.
func (f *Fleet) revive(nd *Node) error {
	if f.Faults == nil {
		return fmt.Errorf("node: fleet has no fault dialer")
	}
	f.Faults.Clear(nd.Addr())
	return nil
}

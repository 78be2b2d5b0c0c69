// Package hirep is a from-scratch implementation of hiREP, the hierarchical
// reputation management system for unstructured peer-to-peer networks of
// Liu & Xiao (ICPP 2006).
//
// The package is the public facade over the implementation:
//
//   - a message-accurate discrete-event simulation of hiREP and its
//     baselines (pure flooding-based voting and TrustMe), exposed through
//     Testbed for programmatic use and through the experiment functions
//     (Fig5..Fig8, Table1, Overhead, Attacks) that regenerate the paper's
//     evaluation;
//   - a live TCP node prototype with real cryptography (self-certifying
//     node IDs, onion routing, signed transaction reports), exposed through
//     Listen/Node.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package hirep

import (
	"fmt"

	"hirep/internal/core"
	"hirep/internal/metrics"
	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/rca"
	"hirep/internal/resilience"
	"hirep/internal/sim"
	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/trustme"
	"hirep/internal/voting"
	"hirep/internal/xrand"
)

// --- simulation experiment API --------------------------------------------

// Params configures the experiment harness (network size, transactions,
// replicas, per-system protocol parameters). See PaperParams and QuickParams.
type Params = sim.Params

// ExpResult is one regenerated table or figure with its summary notes.
type ExpResult = sim.ExpResult

// PaperParams returns the full-scale Table 1 configuration.
func PaperParams() Params { return sim.PaperParams() }

// QuickParams returns a reduced configuration preserving every qualitative
// shape at a fraction of the cost.
func QuickParams() Params { return sim.QuickParams() }

// Fig5 regenerates Figure 5 (trust-query traffic, hiREP vs voting-2/3/4).
func Fig5(p Params) (ExpResult, error) { return sim.Fig5(p) }

// Fig6 regenerates Figure 6 (MSE vs transactions, thresholds 0.4/0.6/0.8).
func Fig6(p Params) (ExpResult, error) { return sim.Fig6(p) }

// Fig7 regenerates Figure 7 (MSE vs malicious-node ratio).
func Fig7(p Params) (ExpResult, error) { return sim.Fig7(p) }

// Fig8 regenerates Figure 8 (cumulative response time vs transactions).
func Fig8(p Params) (ExpResult, error) { return sim.Fig8(p) }

// Overhead verifies the §4.1 O(c) traffic analysis against measurement.
func Overhead(p Params) (ExpResult, error) { return sim.Overhead(p) }

// Attacks runs the §4.2 robustness scenarios.
func Attacks(p Params) (ExpResult, error) { return sim.Attacks(p) }

// Churn runs the agent-churn ablation over the §3.4.3 maintenance machinery.
func Churn(p Params) (ExpResult, error) { return sim.Churn(p) }

// Models compares the agent trust-computation models under report
// manipulation (§4.2.3).
func Models(p Params) (ExpResult, error) { return sim.Models(p) }

// Latency reports per-transaction response-time distributions, the
// distributional companion to Figure 8.
func Latency(p Params) (ExpResult, error) { return sim.Latency(p) }

// BytesView re-examines Figure 5's traffic comparison in bytes as well as
// messages.
func BytesView(p Params) (ExpResult, error) { return sim.BytesView(p) }

// Tokens sweeps the §3.4.1 walk's token budget against list coverage.
func Tokens(p Params) (ExpResult, error) { return sim.Tokens(p) }

// Loss sweeps network message-loss probability against accuracy for both
// systems.
func Loss(p Params) (ExpResult, error) { return sim.Loss(p) }

// RCAConfig holds the centralized-baseline parameters (§3.1's other pole).
type RCAConfig = rca.Config

// DefaultRCAConfig returns the centralized-RCA defaults.
func DefaultRCAConfig() RCAConfig { return rca.DefaultConfig() }

// --- programmatic simulation API -------------------------------------------

// Config holds the hiREP protocol parameters (Table 1).
type Config = core.Config

// DefaultConfig returns Table 1's protocol defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// TxResult summarizes one simulated hiREP transaction.
type TxResult = core.TxResult

// NodeID identifies a node in a simulated overlay.
type NodeID = topology.NodeID

// Testbed is a ready-to-use simulated hiREP deployment: a power-law overlay,
// ground-truth trust assignment, and a bootstrapped hiREP system.
type Testbed struct {
	System *core.System
	Oracle *trust.Oracle
	Net    *simnet.Network
	Graph  *topology.Graph
}

// NewTestbed builds and bootstraps a simulated hiREP deployment of n nodes.
// trustworthyFrac is the fraction of nodes serving authentic content. The
// same seed always produces the identical deployment.
func NewTestbed(n int, trustworthyFrac float64, cfg Config, seed int64) (*Testbed, error) {
	if trustworthyFrac <= 0 || trustworthyFrac >= 1 {
		return nil, fmt.Errorf("hirep: trustworthyFrac must be in (0,1), got %v", trustworthyFrac)
	}
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, rng.Split("topo"))
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(g, simnet.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	oracle := trust.NewOracle(n, trustworthyFrac, rng.Split("oracle"))
	sys, err := core.NewSystem(net, oracle, cfg, rng)
	if err != nil {
		return nil, err
	}
	sys.Bootstrap()
	return &Testbed{System: sys, Oracle: oracle, Net: net, Graph: g}, nil
}

// VotingTestbed is the pure-voting baseline counterpart of Testbed.
type VotingTestbed struct {
	System *voting.System
	Oracle *trust.Oracle
	Net    *simnet.Network
}

// VotingConfig holds the polling-baseline parameters.
type VotingConfig = voting.Config

// DefaultVotingConfig returns the baseline defaults (TTL 4, 10% malicious).
func DefaultVotingConfig() VotingConfig { return voting.DefaultConfig() }

// NewVotingTestbed builds a simulated pure-voting deployment.
func NewVotingTestbed(n int, trustworthyFrac float64, cfg VotingConfig, seed int64) (*VotingTestbed, error) {
	if trustworthyFrac <= 0 || trustworthyFrac >= 1 {
		return nil, fmt.Errorf("hirep: trustworthyFrac must be in (0,1), got %v", trustworthyFrac)
	}
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, rng.Split("topo"))
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(g, simnet.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	oracle := trust.NewOracle(n, trustworthyFrac, rng.Split("oracle"))
	sys, err := voting.NewSystem(net, oracle, cfg, rng)
	if err != nil {
		return nil, err
	}
	return &VotingTestbed{System: sys, Oracle: oracle, Net: net}, nil
}

// TrustMeConfig holds the TrustMe-baseline parameters.
type TrustMeConfig = trustme.Config

// DefaultTrustMeConfig returns the TrustMe baseline defaults.
func DefaultTrustMeConfig() TrustMeConfig { return trustme.DefaultConfig() }

// --- live node API ----------------------------------------------------------

// Node is a live hiREP participant over TCP with real cryptography.
type Node = node.Node

// NodeOptions configures a live node.
type NodeOptions = node.Options

// AgentInfo is a live agent's published descriptor (keys + onion).
type AgentInfo = node.AgentInfo

// Listen starts a live node on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, opts NodeOptions) (*Node, error) { return node.Listen(addr, opts) }

// EncodeAgentInfo serializes an agent descriptor for out-of-band exchange.
func EncodeAgentInfo(info AgentInfo) string { return node.EncodeInfo(info) }

// DecodeAgentInfo parses and verifies a descriptor from EncodeAgentInfo.
func DecodeAgentInfo(s string) (AgentInfo, error) { return node.DecodeInfo(s) }

// Relay describes one onion-route hop of the live protocol (address plus
// verified anonymity key, obtained via Node.FetchAnonKey).
type Relay = onion.Relay

// Onion is a signed layered onion of the live protocol.
type Onion = onion.Onion

// Identity is a live peer identity: signature and anonymity key pairs plus
// the self-certifying nodeID = SHA-1(SP).
type Identity = pkc.Identity

// PeerID is a live node's self-certifying identifier.
type PeerID = pkc.NodeID

// NewIdentity generates a fresh live identity from the system's secure
// randomness.
func NewIdentity() (*Identity, error) { return pkc.NewIdentity(nil) }

// AgentBook is the live node's trusted-agent list (§3.4): verified agent
// descriptors with per-agent expertise, threshold removal, and a backup
// cache.
type AgentBook = node.AgentBook

// NewAgentBook creates a live trusted-agent list holding up to max agents
// with expertise EWMA factor alpha and removal threshold.
func NewAgentBook(max int, alpha, threshold float64) (*AgentBook, error) {
	return node.NewAgentBook(max, alpha, threshold)
}

// RetryPolicy shapes the live node's jittered-exponential-backoff retries
// (NodeOptions.Retry).
type RetryPolicy = resilience.RetryPolicy

// BreakerConfig tunes the live node's per-agent circuit breakers
// (NodeOptions.Breaker).
type BreakerConfig = resilience.BreakerConfig

// MetricsRegistry is a named set of operational counters and gauges: the
// type Node.Metrics returns, holding every counter a live node keeps.
type MetricsRegistry = metrics.Registry

package core

import (
	"math"
	"testing"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// buildSystem wires a complete hiREP system for tests.
func buildSystem(t testing.TB, n int, cfg Config, seed int64) *System {
	t.Helper()
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, rng.Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(g, simnet.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	oracle := trust.NewOracle(n, 0.5, rng.Split("oracle"))
	sys, err := NewSystem(net, oracle, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TrustedAgents = 0 },
		func(c *Config) { c.Tokens = 0 },
		func(c *Config) { c.TTL = 0 },
		func(c *Config) { c.OnionRelays = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.RemoveThreshold = -0.1 },
		func(c *Config) { c.RemoveThreshold = 1 },
		func(c *Config) { c.RefillBelow = -1 },
		func(c *Config) { c.RefillBelow = 99 },
		func(c *Config) { c.CandidatesPerTx = 0 },
		func(c *Config) { c.AgentFrac = 0 },
		func(c *Config) { c.AgentFrac = 1.5 },
		func(c *Config) { c.MaliciousFrac = -1 },
		func(c *Config) { c.OfflineProb = 1 },
		func(c *Config) { c.Rating.GoodHi = 0.1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewSystemRoleAssignment(t *testing.T) {
	sys := buildSystem(t, 400, DefaultConfig(), 1)
	agents := sys.AgentCount()
	if agents < 80 || agents > 160 {
		t.Fatalf("agent count %d far from 30%% of 400", agents)
	}
	honest := sys.HonestAgentCount()
	frac := float64(honest) / float64(agents)
	if frac < 0.8 || frac > 0.98 {
		t.Fatalf("honest fraction %.2f, want ~0.9", frac)
	}
}

func TestOnionRoutesExcludeSelf(t *testing.T) {
	sys := buildSystem(t, 100, DefaultConfig(), 2)
	for _, p := range sys.peers {
		relays := p.path[:len(p.path)-1]
		if len(relays) != sys.cfg.OnionRelays || p.path[len(relays)] != p.id {
			t.Fatalf("peer %d has path %v, want %d relays then itself", p.id, p.path, sys.cfg.OnionRelays)
		}
		seen := map[topology.NodeID]bool{}
		for _, r := range relays {
			if r == p.id {
				t.Fatalf("peer %d routes through itself", p.id)
			}
			if seen[r] {
				t.Fatalf("peer %d has duplicate relay %d", p.id, r)
			}
			seen[r] = true
		}
	}
}

func TestBootstrapFillsLists(t *testing.T) {
	sys := buildSystem(t, 300, DefaultConfig(), 3)
	maint := sys.Bootstrap()
	if maint <= 0 {
		t.Fatal("bootstrap sent no messages")
	}
	filled := 0
	for i := range sys.peers {
		agents := sys.TrustedAgentsOf(topology.NodeID(i))
		if len(agents) > sys.cfg.TrustedAgents {
			t.Fatalf("peer %d has %d agents, cap %d", i, len(agents), sys.cfg.TrustedAgents)
		}
		if len(agents) > 0 {
			filled++
		}
		// Every selected agent must actually be agent-capable, and not self.
		for _, a := range agents {
			if sys.agents[a] == nil {
				t.Fatalf("peer %d trusts non-agent %d", i, a)
			}
			if a == topology.NodeID(i) {
				t.Fatalf("peer %d trusts itself", i)
			}
		}
	}
	if filled < 290 {
		t.Fatalf("only %d/300 peers found agents", filled)
	}
	// Initial expertise must be 1 (§3.4.3).
	for _, a := range sys.TrustedAgentsOf(0) {
		v, ok := sys.ExpertiseOf(0, a)
		if !ok || v != 1 {
			t.Fatalf("initial expertise %v", v)
		}
	}
}

func TestTransactionProducesResult(t *testing.T) {
	sys := buildSystem(t, 200, DefaultConfig(), 4)
	sys.Bootstrap()
	res := sys.RunRandomTransaction()
	if res.Responded == 0 {
		t.Fatal("no agents responded")
	}
	if len(res.Estimates) != sys.cfg.CandidatesPerTx {
		t.Fatalf("%d estimates", len(res.Estimates))
	}
	found := false
	for _, c := range res.Candidates {
		if c == res.Chosen {
			found = true
		}
		if c == res.Requestor {
			t.Fatal("requestor among candidates")
		}
	}
	if !found {
		t.Fatal("chosen not among candidates")
	}
	if res.ResponseTime <= 0 {
		t.Fatal("non-positive response time")
	}
	if res.TrustMessages <= 0 {
		t.Fatal("no trust messages counted")
	}
	if res.Outcome != sys.oracle.TransactionOutcome(int(res.Chosen)) {
		t.Fatal("outcome inconsistent with oracle")
	}
}

func TestTrafficMatchesAnalyticBound(t *testing.T) {
	// §4.1: trust-distribution messages per transaction are O(c). With our
	// message-accurate onions: c requests of (o+1) hops, c responses of
	// (o+1) hops, and <= c reports of (o+1) hops.
	cfg := DefaultConfig()
	cfg.OfflineProb = 0
	sys := buildSystem(t, 300, cfg, 5)
	sys.Bootstrap()
	for i := 0; i < 5; i++ {
		res := sys.RunRandomTransaction()
		c := int64(cfg.TrustedAgents)
		o := int64(cfg.OnionRelays)
		maxMsgs := 3 * c * (o + 1)
		if res.TrustMessages > maxMsgs {
			t.Fatalf("tx %d: %d messages exceed analytic bound %d", i, res.TrustMessages, maxMsgs)
		}
		if res.TrustMessages < 2*(o+1) {
			t.Fatalf("tx %d: %d messages suspiciously few", i, res.TrustMessages)
		}
	}
}

func TestTrafficIndependentOfDegree(t *testing.T) {
	// Figure 5's hiREP property: per-transaction traffic does not depend on
	// the overlay degree (requests go point-to-point through onions).
	perDegree := map[int]int64{}
	for _, deg := range []int{2, 4} {
		rng := xrand.New(77)
		g, err := topology.Generate(topology.GenSpec{Model: topology.FixedAvgDegree, N: 300, AvgDegree: deg}, rng.Split("topo"))
		if err != nil {
			t.Fatal(err)
		}
		net, _ := simnet.New(g, simnet.DefaultConfig(77))
		oracle := trust.NewOracle(300, 0.5, rng.Split("oracle"))
		sys, err := NewSystem(net, oracle, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sys.Bootstrap()
		var total int64
		for i := 0; i < 10; i++ {
			total += sys.RunRandomTransaction().TrustMessages
		}
		perDegree[deg] = total
	}
	lo, hi := float64(perDegree[2]), float64(perDegree[4])
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi/lo > 1.25 {
		t.Fatalf("hiREP traffic depends on degree: %v", perDegree)
	}
}

func TestExpertiseLearningFiltersBadAgents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaliciousFrac = 0.4 // plenty of bad agents to learn about
	sys := buildSystem(t, 300, cfg, 6)
	sys.Bootstrap()
	// Expertise is learned by the transacting peer: train one requestor.
	requestor := topology.NodeID(0)
	for i := 0; i < 60; i++ {
		sys.RunTransaction(requestor, sys.PickCandidates(requestor))
	}
	honest, total := 0, 0
	for _, a := range sys.TrustedAgentsOf(requestor) {
		total++
		if sys.agents[a] != nil && sys.agents[a].honest {
			honest++
		}
	}
	if total == 0 {
		t.Fatal("requestor has no agents left")
	}
	frac := float64(honest) / float64(total)
	if frac < 0.75 {
		t.Fatalf("after training only %.2f of trusted agents are honest (population honest rate 0.6)", frac)
	}
}

func TestAccuracyImprovesWithTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaliciousFrac = 0.3
	sys := buildSystem(t, 300, cfg, 7)
	sys.Bootstrap()
	requestor := topology.NodeID(5)
	var early, late trust.MSEAccumulator
	for i := 0; i < 200; i++ {
		res := sys.RunTransaction(requestor, sys.PickCandidates(requestor))
		var acc *trust.MSEAccumulator
		switch {
		case i < 20:
			acc = &early
		case i >= 150:
			acc = &late
		default:
			continue
		}
		for j, c := range res.Candidates {
			est := res.Estimates[j]
			if math.IsNaN(float64(est)) {
				est = 0.5
			}
			acc.Observe(est, sys.oracle.TrueValue(int(c)))
		}
	}
	if late.MSE() >= early.MSE() {
		t.Fatalf("MSE did not improve: early %.4f late %.4f", early.MSE(), late.MSE())
	}
}

func TestChurnUsesBackupCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OfflineProb = 0.3
	sys := buildSystem(t, 200, cfg, 8)
	sys.Bootstrap()
	sawBackup := false
	for i := 0; i < 40 && !sawBackup; i++ {
		sys.RunRandomTransaction()
		for j := 0; j < 200; j++ {
			if sys.BackupCountOf(topology.NodeID(j)) > 0 {
				sawBackup = true
				break
			}
		}
	}
	if !sawBackup {
		t.Fatal("churn never populated a backup cache")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []TxResult {
		sys := buildSystem(t, 150, DefaultConfig(), 99)
		sys.Bootstrap()
		out := make([]TxResult, 10)
		for i := range out {
			out[i] = sys.RunRandomTransaction()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Requestor != b[i].Requestor || a[i].Chosen != b[i].Chosen ||
			a[i].TrustMessages != b[i].TrustMessages || a[i].ResponseTime != b[i].ResponseTime {
			t.Fatalf("run diverged at tx %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNewSystemRejectsMismatchedOracle(t *testing.T) {
	rng := xrand.New(1)
	g, _ := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: 50, AvgDegree: 4}, rng)
	net, _ := simnet.New(g, simnet.DefaultConfig(1))
	oracle := trust.NewOracle(40, 0.5, rng)
	if _, err := NewSystem(net, oracle, DefaultConfig(), rng); err == nil {
		t.Fatal("mismatched oracle accepted")
	}
}

func TestNewSystemRejectsTooManyRelays(t *testing.T) {
	rng := xrand.New(1)
	g, _ := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: 5, AvgDegree: 2}, rng)
	net, _ := simnet.New(g, simnet.DefaultConfig(1))
	oracle := trust.NewOracle(5, 0.5, rng)
	cfg := DefaultConfig()
	cfg.OnionRelays = 5
	if _, err := NewSystem(net, oracle, cfg, rng); err == nil {
		t.Fatal("relay count >= n-1 accepted")
	}
}

func TestReportsReachAgents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = ModelTally
	sys := buildSystem(t, 200, cfg, 11)
	sys.Bootstrap()
	for i := 0; i < 30; i++ {
		sys.RunRandomTransaction()
	}
	reports := 0
	for _, a := range sys.agents {
		if a == nil {
			continue
		}
		for _, tl := range a.tallies {
			reports += tl.pos + tl.neg
		}
	}
	if reports == 0 {
		t.Fatal("no transaction reports stored at any agent")
	}
}

func TestMaintenanceSeparatedFromTrustTraffic(t *testing.T) {
	sys := buildSystem(t, 200, DefaultConfig(), 12)
	boot := sys.Bootstrap()
	if boot <= 0 {
		t.Fatal("bootstrap cost not measured")
	}
	res := sys.RunRandomTransaction()
	// A normal transaction with full lists needs no maintenance traffic.
	if res.MaintMessages != 0 && res.MaintMessages > boot {
		t.Fatalf("maintenance messages %d look wrong", res.MaintMessages)
	}
}

func TestTrafficBytesAccounted(t *testing.T) {
	sys := buildSystem(t, 200, DefaultConfig(), 31)
	sys.Bootstrap()
	res := sys.RunRandomTransaction()
	var bytes int64
	for _, k := range TrafficKinds() {
		bytes += sys.net.Bytes(k)
	}
	if bytes == 0 {
		t.Fatal("no trust-traffic bytes accounted")
	}
	// Onion messages are large: hundreds of bytes per message on average.
	perMsg := float64(bytes) / float64(res.TrustMessages)
	if perMsg < 200 || perMsg > 5000 {
		t.Fatalf("bytes per onion message %.0f implausible", perMsg)
	}
}

package hirep_test

import (
	"strings"
	"testing"
	"time"

	"hirep"
)

func TestTestbedLifecycle(t *testing.T) {
	tb, err := hirep.NewTestbed(200, 0.6, hirep.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Graph.N() != 200 || tb.Oracle.N() != 200 {
		t.Fatal("testbed sized wrong")
	}
	if tb.System.AgentCount() == 0 {
		t.Fatal("no agents")
	}
	req := hirep.NodeID(3)
	if len(tb.System.TrustedAgentsOf(req)) == 0 {
		t.Fatal("bootstrap did not run")
	}
	res := tb.System.RunTransaction(req, tb.System.PickCandidates(req))
	if res.TrustMessages == 0 || len(res.Candidates) == 0 {
		t.Fatalf("empty transaction result: %+v", res)
	}
}

func TestTestbedValidation(t *testing.T) {
	if _, err := hirep.NewTestbed(200, 0, hirep.DefaultConfig(), 1); err == nil {
		t.Error("trustworthyFrac=0 accepted")
	}
	if _, err := hirep.NewTestbed(200, 1, hirep.DefaultConfig(), 1); err == nil {
		t.Error("trustworthyFrac=1 accepted")
	}
	bad := hirep.DefaultConfig()
	bad.TrustedAgents = 0
	if _, err := hirep.NewTestbed(200, 0.5, bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTestbedDeterministic(t *testing.T) {
	run := func() hirep.TxResult {
		tb, err := hirep.NewTestbed(150, 0.5, hirep.DefaultConfig(), 99)
		if err != nil {
			t.Fatal(err)
		}
		req := hirep.NodeID(5)
		return tb.System.RunTransaction(req, tb.System.PickCandidates(req))
	}
	a, b := run(), run()
	if a.Chosen != b.Chosen || a.TrustMessages != b.TrustMessages {
		t.Fatal("testbed not deterministic")
	}
}

func TestVotingTestbed(t *testing.T) {
	tb, err := hirep.NewVotingTestbed(150, 0.5, hirep.DefaultVotingConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	req := hirep.NodeID(4)
	res := tb.System.RunTransaction(req, tb.System.PickCandidates(req))
	if res.Voters == 0 {
		t.Fatal("no voters")
	}
}

func TestExperimentFacades(t *testing.T) {
	p := hirep.QuickParams()
	p.NetworkSize = 100
	p.Transactions = 30
	p.Replicas = 1
	p.ActiveRequestors = 5
	p.ProviderPool = 20
	p.SampleEvery = 10
	for _, exp := range []struct {
		name string
		run  func(hirep.Params) (hirep.ExpResult, error)
	}{
		{"fig5", hirep.Fig5},
		{"fig6", hirep.Fig6},
		{"fig8", hirep.Fig8},
		{"overhead", hirep.Overhead},
		{"churn", hirep.Churn},
		{"models", hirep.Models},
		{"latency", hirep.Latency},
		{"bytes", hirep.BytesView},
		{"tokens", hirep.Tokens},
		{"loss", hirep.Loss},
	} {
		res, err := exp.run(p)
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if res.Table.NumRows() == 0 {
			t.Fatalf("%s: empty table", exp.name)
		}
	}
}

func TestLiveNodeFacade(t *testing.T) {
	agent, err := hirep.Listen("127.0.0.1:0", hirep.NodeOptions{Agent: true, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	relay, err := hirep.Listen("127.0.0.1:0", hirep.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	peer, err := hirep.Listen("127.0.0.1:0", hirep.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	rel, err := agent.FetchAnonKey(relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	o, err := agent.BuildOnion([]hirep.Relay{rel})
	if err != nil {
		t.Fatal(err)
	}
	// Descriptor round trip through the facade.
	desc := hirep.EncodeAgentInfo(agent.Info(o))
	info, err := hirep.DecodeAgentInfo(desc)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID() != agent.ID() {
		t.Fatal("descriptor identity mismatch")
	}
	// A full request through the decoded descriptor.
	prel, err := peer.FetchAnonKey(relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	po, err := peer.BuildOnion([]hirep.Relay{prel})
	if err != nil {
		t.Fatal(err)
	}
	subject, err := hirep.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, po); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAgentInfoRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "not base64 !!!", "aGVsbG8="} {
		if _, err := hirep.DecodeAgentInfo(s); err == nil {
			t.Errorf("garbage descriptor %q accepted", s)
		}
	}
}

func TestTable1Facade(t *testing.T) {
	res, err := hirep.Overhead(func() hirep.Params {
		p := hirep.QuickParams()
		p.NetworkSize = 100
		p.Transactions = 10
		p.Replicas = 1
		p.ActiveRequestors = 4
		p.ProviderPool = 15
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, " ")
	if !strings.Contains(joined, "hiREP") {
		t.Fatalf("overhead notes: %v", res.Notes)
	}
}

package node

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
)

// fleet starts n live nodes on loopback; the first nAgents are agents.
func fleet(t *testing.T, n, nAgents int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := Listen("127.0.0.1:0", Options{Agent: i < nAgents, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
	}
	return nodes
}

// fetchRoute runs the Figure 3 handshake against each relay node.
func fetchRoute(t *testing.T, from *Node, relays []*Node) []onion.Relay {
	t.Helper()
	route := make([]onion.Relay, len(relays))
	for i, r := range relays {
		rel, err := from.FetchAnonKey(r.Addr())
		if err != nil {
			t.Fatalf("handshake with relay %d: %v", i, err)
		}
		if rel.Addr != r.Addr() {
			t.Fatalf("relay advertised %q, listening on %q", rel.Addr, r.Addr())
		}
		route[i] = rel
	}
	return route
}

func TestRelayHandshakeLive(t *testing.T) {
	nodes := fleet(t, 2, 0)
	rel, err := nodes[0].FetchAnonKey(nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rel.AP == nil {
		t.Fatal("no anonymity key returned")
	}
}

func TestEndToEndTrustExchange(t *testing.T) {
	// Topology: agent + requestor + reporter + 4 relays, all real TCP.
	nodes := fleet(t, 7, 1)
	agentNode, requestor, reporter := nodes[0], nodes[1], nodes[2]
	relays := nodes[3:7]

	// The agent publishes an onion over relays 0,1.
	agentRoute := fetchRoute(t, agentNode, relays[:2])
	agentOnion, err := agentNode.BuildOnion(agentRoute)
	if err != nil {
		t.Fatal(err)
	}
	agentInfo := agentNode.Info(agentOnion)

	// A subject both parties care about.
	subject, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}

	// The reporter must be known to the agent before its reports count:
	// a trust request registers its key (§3.5.2).
	repOnion, err := reporter.BuildOnion(fetchRoute(t, reporter, relays[2:4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, hasData, err := reporter.RequestTrust(agentInfo, subject.ID, repOnion); err != nil {
		t.Fatalf("reporter pre-request: %v", err)
	} else if hasData {
		t.Fatal("agent claims data before any report")
	}

	// Reporter files three positive reports through the agent's onion.
	three := []BatchReport{{Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: true}}
	if _, err := reporter.ReportBatch(agentInfo, three, repOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 3 })

	// The requestor asks for the subject's trust value through onions.
	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, relays[1:3]))
	if err != nil {
		t.Fatal(err)
	}
	v, hasData, err := requestor.RequestTrust(agentInfo, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if !hasData {
		t.Fatal("agent has 3 reports but claims no data")
	}
	if v < 0.7 {
		t.Fatalf("trust value %v after 3 positive reports", v)
	}
}

func TestAgentLearnsNegativeReports(t *testing.T) {
	nodes := fleet(t, 4, 1)
	agentNode, peer := nodes[0], nodes[1]
	relays := nodes[2:4]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, peerOnion); err != nil {
		t.Fatal(err)
	}
	reports := make([]BatchReport, 4)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: false}
	}
	if _, err := peer.ReportBatch(info, reports, peerOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 4 })
	v, hasData, err := peer.RequestTrust(info, subject.ID, peerOnion)
	if err != nil {
		t.Fatal(err)
	}
	if !hasData || v > 0.3 {
		t.Fatalf("negative reports not reflected: v=%v hasData=%v", v, hasData)
	}
}

func TestNonAgentIgnoresTrustRequests(t *testing.T) {
	nodes := fleet(t, 3, 0) // nobody is an agent
	notAgent, requestor, relay := nodes[0], nodes[1], nodes[2]
	fakeOnion, err := notAgent.BuildOnion(fetchRoute(t, notAgent, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := notAgent.Info(fakeOnion)
	subject, _ := pkc.NewIdentity(nil)
	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	requestor.SetTimeout(500 * time.Millisecond)
	if _, _, err := requestor.RequestTrust(info, subject.ID, reqOnion); !errors.Is(err, ErrTimeout) {
		t.Fatalf("non-agent answered a trust request: %v", err)
	}
}

func TestForgedAgentOnionRejected(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, requestor, relay := nodes[0], nodes[1], nodes[2]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	// Attacker substitutes its own SP: onion signature no longer verifies.
	mitm, _ := pkc.NewIdentity(nil)
	info.SP = mitm.Sign.Public
	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := requestor.RequestTrust(info, mitm.ID, reqOnion); err == nil {
		t.Fatal("forged agent descriptor accepted")
	}
}

func TestStaleReplyOnionRejected(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	route := fetchRoute(t, peer, []*Node{relay})
	oldOnion, err := peer.BuildOnion(route)
	if err != nil {
		t.Fatal(err)
	}
	newOnion, err := peer.BuildOnion(route) // higher sequence number
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, newOnion); err != nil {
		t.Fatal(err)
	}
	// Replaying the older onion must be ignored by the agent (§3.3 seq rule).
	peer.SetTimeout(500 * time.Millisecond)
	if _, _, err := peer.RequestTrust(info, subject.ID, oldOnion); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stale onion accepted: %v", err)
	}
}

// TestListenRejectsInvalidOptions pins Listen as the one place options are
// validated: an agent-only setting on a non-agent and a proof of work no
// sender can mint are errors, not settings quietly ignored or a gate every
// report bounces off forever.
func TestListenRejectsInvalidOptions(t *testing.T) {
	id := pkc.NodeID{1}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"StoreDir", Options{StoreDir: t.TempDir()}},
		{"Replicas", Options{Replicas: []string{"127.0.0.1:1"}}},
		{"ReplicaOf", Options{ReplicaOf: []pkc.NodeID{id}}},
		{"ReplicaPeers", Options{ReplicaPeers: []pkc.NodeID{id}}},
		{"EvidenceCap", Options{EvidenceCap: 8}},
		{"ProofCache", Options{ProofCache: 8}},
		{"AdmissionPoWBits", Options{Agent: true, AdmissionPoWBits: pkc.MaxAdmissionBits + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := Listen("127.0.0.1:0", tc.opts)
			if err == nil {
				_ = nd.Close()
				t.Fatal("Listen accepted the setting")
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name %s", err, tc.name)
			}
		})
	}
	nd, err := Listen("127.0.0.1:0", Options{Agent: true, AdmissionPoWBits: pkc.MaxAdmissionBits})
	if err != nil {
		t.Fatalf("the hardest mintable difficulty was refused: %v", err)
	}
	_ = nd.Close()
}

func TestCloseIdempotent(t *testing.T) {
	nd, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.FetchAnonKey("127.0.0.1:1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed node still operates: %v", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	nodes := fleet(t, 4, 1)
	agentNode, relay1, relay2 := nodes[0], nodes[2], nodes[3]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay1}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	peer := nodes[1]
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay2}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			subject, _ := pkc.NewIdentity(nil)
			_, _, err := peer.RequestTrust(info, subject.ID, peerOnion)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent request %d: %v", i, err)
		}
	}
}

// waitFor polls cond for up to 3 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

package node

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hirep/internal/pkc"
)

// TestFullFleetLifecycle is the capstone live integration test: a 12-node
// mesh (3 agents, 9 peers/relays) runs the complete autonomous protocol —
// agents publish onions, peers discover them over the overlay, build
// trusted-agent books, exchange onion-routed trust traffic, file signed
// reports, and converge on a subject's reputation — with no out-of-band
// state whatsoever.
func TestFullFleetLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet test")
	}
	const n = 12
	agentIdx := map[int]bool{0: true, 1: true, 2: true}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := Listen("127.0.0.1:0", Options{Agent: agentIdx[i], Timeout: 4 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes[i] = nd
	}
	// Mesh overlay: node i links to i±1 and i±3 (mod n) — diameter ~3.
	for i, nd := range nodes {
		nbs := []string{
			nodes[(i+1)%n].Addr(),
			nodes[(i+n-1)%n].Addr(),
			nodes[(i+3)%n].Addr(),
			nodes[(i+n-3)%n].Addr(),
		}
		nd.SetNeighbors(nbs)
	}

	// Agents publish through two relay hops each.
	for i := 0; i < 3; i++ {
		relays := []string{nodes[3+i].Addr(), nodes[6+i].Addr()}
		if _, err := nodes[i].PublishDescriptor(relays); err != nil {
			t.Fatalf("agent %d publish: %v", i, err)
		}
	}

	// Two independent peers bootstrap entirely over the network.
	requestor, reporter := nodes[9], nodes[10]
	books := make(map[*Node]*AgentBook)
	for _, p := range []*Node{requestor, reporter} {
		infos, err := p.DiscoverAgents(12, 4, 1200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		book, err := NewAgentBook(10, 0.3, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			book.Add(info)
		}
		if book.Len() < 2 {
			t.Fatalf("peer discovered only %d agents", book.Len())
		}
		books[p] = book
	}

	// The reporter transacts with a provider and tells its agents.
	provider, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	repOnion, err := reporter.BuildOnion(fetchRoute(t, reporter, []*Node{nodes[4], nodes[7]}))
	if err != nil {
		t.Fatal(err)
	}
	// Introduce (registers the key at every agent), then report twice.
	if _, _, err := reporter.EvaluateSubject(books[reporter], provider.ID, repOnion); err != nil {
		t.Fatal(err)
	}
	twice := []BatchReport{{Subject: provider.ID, Positive: true}, {Subject: provider.ID, Positive: true}}
	for _, a := range books[reporter].Agents() {
		if _, err := reporter.ReportBatch(a, twice, repOnion); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		total := 0
		for i := 0; i < 3; i++ {
			total += nodes[i].Agent().ReportCount()
		}
		return total >= 2*books[reporter].Len()
	})

	// The requestor — who has never spoken to the reporter — now learns the
	// provider's reputation through the shared agents.
	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, []*Node{nodes[5], nodes[8]}))
	if err != nil {
		t.Fatal(err)
	}
	v, perAgent, err := requestor.EvaluateSubject(books[requestor], provider.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if len(perAgent) < 2 {
		t.Fatalf("only %d agents answered the requestor", len(perAgent))
	}
	// At least one shared agent holds the reporter's positive evidence, so
	// the aggregate must lean positive (> 0.5 uninformed prior).
	if v <= 0.5 {
		t.Fatalf("reputation did not propagate: aggregate %v", v)
	}
	// Complete the transaction loop.
	removed := requestor.CompleteTransaction(books[requestor], provider.ID, true, perAgent)
	if len(removed) != 0 {
		t.Fatalf("consistent agents were removed: %v", removed)
	}
}

// TestAgentRestartRecoversStore kills the agent mid-run and reopens a node
// against the same store directory: queried trust values and report counts
// must survive. The "kill" is honest — the store directory is cloned
// byte-for-byte BEFORE the graceful close, so the reopened agent sees only
// what the WAL's group commit had made durable, not a shutdown snapshot.
func TestAgentRestartRecoversStore(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "agent-store")
	agentNode, err := Listen("127.0.0.1:0", Options{Agent: true, Timeout: 4 * time.Second, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	plain := fleet(t, 2, 0)
	peer, relay := plain[0], plain[1]

	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	// Introduce the peer (registers its key), then file 4 positive and 1
	// negative report.
	if _, _, err := peer.RequestTrust(info, subject.ID, peerOnion); err != nil {
		t.Fatal(err)
	}
	reports := make([]BatchReport, 5)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: i != 0}
	}
	if _, err := peer.ReportBatch(info, reports, peerOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 5 })
	wantTrust, ok := agentNode.Agent().TrustValue(subject.ID)
	if !ok {
		t.Fatal("agent has no opinion before the kill")
	}

	// Kill: clone the store dir as-is (ReportCount is only visible after the
	// WAL batch landed, so the clone must contain all 5 reports), then shut
	// the old process down.
	crashDir := filepath.Join(t.TempDir(), "recovered-store")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(storeDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := agentNode.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen against the crash image. The node has a fresh identity — state
	// is keyed by subject, not by the agent — and must serve the recovered
	// values, both directly and over the live protocol.
	revived, err := Listen("127.0.0.1:0", Options{Agent: true, Timeout: 4 * time.Second, StoreDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = revived.Close() })
	if got := revived.Agent().ReportCount(); got != 5 {
		t.Fatalf("recovered ReportCount = %d, want 5", got)
	}
	got, ok := revived.Agent().TrustValue(subject.ID)
	if !ok || got != wantTrust {
		t.Fatalf("recovered trust = %v (ok=%v), want %v", got, ok, wantTrust)
	}
	revivedOnion, err := revived.BuildOnion(fetchRoute(t, revived, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	peerOnion2, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	v, hasData, err := peer.RequestTrust(revived.Info(revivedOnion), subject.ID, peerOnion2)
	if err != nil {
		t.Fatal(err)
	}
	if !hasData || v != wantTrust {
		t.Fatalf("live query after restart = %v (hasData=%v), want %v", v, hasData, wantTrust)
	}
	// And the revived agent keeps accepting new reports on top of the
	// recovered state.
	if _, err := peer.ReportBatch(revived.Info(revivedOnion), []BatchReport{{Subject: subject.ID, Positive: true}}, peerOnion2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return revived.Agent().ReportCount() == 6 })
}

// TestStatsCounters checks the observability counters across a simple
// exchange.
func TestStatsCounters(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, peerOnion); err != nil {
		t.Fatal(err)
	}
	if err := peer.reportTransaction(info, subject.ID, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Stats().ReportsStored == 1 })

	rs := relay.Stats()
	if rs.OnionsForwarded < 2 {
		t.Fatalf("relay forwarded %d onions, expected >= 2 (req + resp)", rs.OnionsForwarded)
	}
	if rs.OnionsExited != 0 {
		t.Fatal("relay consumed onion payloads addressed elsewhere")
	}
	as := agentNode.Stats()
	if as.TrustServed != 1 {
		t.Fatalf("agent served %d trust requests", as.TrustServed)
	}
	if as.OnionsExited < 2 {
		t.Fatalf("agent exits %d", as.OnionsExited)
	}
	ps := peer.Stats()
	if ps.OnionsExited != 1 { // the trust response
		t.Fatalf("peer exits %d", ps.OnionsExited)
	}
	if ps.FramesIn == 0 {
		t.Fatal("no frames counted")
	}
}

// TestGatedFleetTransactions runs the §3.6 loop against agents whose sybil
// admission gate is armed. The first report to each agent goes through the
// acknowledged loop, which solves the gate; later ones may ride the one-way
// path of the admitted identity. Every report must land at every agent, and
// the peer must have paid the proof of work.
func TestGatedFleetTransactions(t *testing.T) {
	fl, err := StartFleet(FleetConfig{Agents: 3, Relays: 2, Peers: 1,
		Opts:      Options{Timeout: 5 * time.Second},
		AgentOpts: func(_ int, o *Options) { o.AdmissionPoWBits = 8 }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	peer := fl.Peers[0]
	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	book, err := fl.Book(infos, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	peer.AttachBook(book)
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)
	// Two clients share the peer, so the delivery state is read and written
	// from several goroutines at once.
	const clients, perClient = 2, 3
	const rounds = clients * perClient
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
				if err != nil {
					t.Errorf("transaction: %v", err)
					return
				}
				// A bad outcome agrees with the uninformed prior and with
				// every report before it, so no agent loses its place for
				// poor expertise.
				peer.CompleteTransaction(book, subject.ID, false, perAgent)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitFor(t, func() bool {
		if peer.OutboxDepth() != 0 {
			return false
		}
		for _, a := range fl.Agents {
			if a.Agent().ReportCount() != rounds {
				return false
			}
		}
		return true
	})
	if got := metric(t, peer, "node_admission_work_total"); got == 0 {
		t.Fatal("the peer's reports reached gated agents without any proof of work")
	}
	for i, a := range fl.Agents {
		if got := a.admittedIdentities(); got != 1 {
			t.Fatalf("agent %d admitted %d identities, want 1", i, got)
		}
	}
}

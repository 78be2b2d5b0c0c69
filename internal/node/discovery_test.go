package node

import (
	"testing"
	"time"

	"hirep/internal/pkc"
)

// chainNeighbors wires nodes into a line: n0 - n1 - n2 - ...
func chainNeighbors(nodes []*Node) {
	for i, nd := range nodes {
		var nbs []string
		if i > 0 {
			nbs = append(nbs, nodes[i-1].Addr())
		}
		if i < len(nodes)-1 {
			nbs = append(nbs, nodes[i+1].Addr())
		}
		nd.SetNeighbors(nbs)
	}
}

func TestPublishDescriptorRequiresAgent(t *testing.T) {
	nodes := fleet(t, 2, 0)
	if _, err := nodes[0].PublishDescriptor([]string{nodes[1].Addr()}); err != ErrNotAgent {
		t.Fatalf("non-agent published: %v", err)
	}
}

func TestPublishDescriptorRoundTrip(t *testing.T) {
	nodes := fleet(t, 2, 1)
	desc, err := nodes[0].PublishDescriptor([]string{nodes[1].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	info, err := DecodeInfo(desc)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID() != nodes[0].ID() {
		t.Fatal("published descriptor identity mismatch")
	}
}

func TestDiscoverAgentsOverChain(t *testing.T) {
	// Line of 6 nodes; agents at positions 2 and 4 publish; node 0 walks.
	nodes := fleet(t, 6, 0)
	// Rebuild with agents at 2 and 4: easier to make a fresh fleet with the
	// agent flag in the right places.
	agents := map[int]bool{2: true, 4: true}
	fresh := make([]*Node, 6)
	for i := range fresh {
		nd, err := Listen("127.0.0.1:0", Options{Agent: agents[i], Timeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		fresh[i] = nd
	}
	_ = nodes
	chainNeighbors(fresh)
	// Agents publish through their line neighbors as relays.
	if _, err := fresh[2].PublishDescriptor([]string{fresh[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh[4].PublishDescriptor([]string{fresh[5].Addr()}); err != nil {
		t.Fatal(err)
	}
	infos, err := fresh[0].DiscoverAgents(8, 6, 900*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, info := range infos {
		found[info.ID().String()] = true
	}
	if !found[fresh[2].ID().String()] {
		t.Fatalf("agent at hop 2 not discovered (found %d)", len(infos))
	}
	if !found[fresh[4].ID().String()] {
		t.Fatalf("agent at hop 4 not discovered (found %d)", len(infos))
	}
}

func TestDiscoverAgentsTTLBound(t *testing.T) {
	agents := map[int]bool{4: true}
	fresh := make([]*Node, 5)
	for i := range fresh {
		nd, err := Listen("127.0.0.1:0", Options{Agent: agents[i], Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		fresh[i] = nd
	}
	chainNeighbors(fresh)
	if _, err := fresh[4].PublishDescriptor([]string{fresh[3].Addr()}); err != nil {
		t.Fatal(err)
	}
	// TTL 2 cannot reach the agent 4 hops away.
	infos, err := fresh[0].DiscoverAgents(8, 2, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("TTL-2 walk found %d agents 4 hops away", len(infos))
	}
}

func TestDiscoverAgentsValidation(t *testing.T) {
	nodes := fleet(t, 1, 0)
	if _, err := nodes[0].DiscoverAgents(8, 4, 100*time.Millisecond); err == nil {
		t.Fatal("walk without neighbors succeeded")
	}
	nodes[0].SetNeighbors([]string{"127.0.0.1:1"})
	if _, err := nodes[0].DiscoverAgents(0, 4, time.Millisecond); err == nil {
		t.Fatal("zero tokens accepted")
	}
}

func TestDiscoveryCachesDescriptors(t *testing.T) {
	// After a walk, the walker itself can answer future walks with what it
	// learned (recommendation propagation, §3.4.1).
	agents := map[int]bool{2: true}
	fresh := make([]*Node, 4)
	for i := range fresh {
		nd, err := Listen("127.0.0.1:0", Options{Agent: agents[i], Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		fresh[i] = nd
	}
	chainNeighbors(fresh)
	if _, err := fresh[2].PublishDescriptor([]string{fresh[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	// Node 1 walks and caches the agent.
	infos, err := fresh[1].DiscoverAgents(4, 3, 700*time.Millisecond)
	if err != nil || len(infos) == 0 {
		t.Fatalf("first walk: %v / %d agents", err, len(infos))
	}
	// Node 0 walks with TTL 1: only node 1 is reachable, which now knows the
	// agent from its cache.
	infos, err = fresh[0].DiscoverAgents(4, 1, 700*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("cached descriptor not propagated")
	}
	if infos[0].ID() != fresh[2].ID() {
		t.Fatal("wrong agent propagated")
	}
}

func TestDiscoveryIntoAgentBook(t *testing.T) {
	// The complete live bootstrap: discover agents, fill the book, transact.
	agents := map[int]bool{1: true, 3: true}
	fresh := make([]*Node, 5)
	for i := range fresh {
		nd, err := Listen("127.0.0.1:0", Options{Agent: agents[i], Timeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		fresh[i] = nd
	}
	chainNeighbors(fresh)
	if _, err := fresh[1].PublishDescriptor([]string{fresh[2].Addr()}); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh[3].PublishDescriptor([]string{fresh[2].Addr()}); err != nil {
		t.Fatal(err)
	}
	peer := fresh[0]
	infos, err := peer.DiscoverAgents(8, 5, 900*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	book, _ := NewAgentBook(10, 0.3, 0.4)
	for _, info := range infos {
		book.Add(info)
	}
	if book.Len() < 2 {
		t.Fatalf("book has %d agents after discovery", book.Len())
	}
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, fresh[2:3]))
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)
	if _, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion); err != nil {
		t.Fatal(err)
	} else if len(perAgent) < 2 {
		t.Fatalf("only %d discovered agents answered", len(perAgent))
	}
}

func TestPing(t *testing.T) {
	nodes := fleet(t, 2, 0)
	if !nodes[0].ping(nodes[1].Addr()) {
		t.Fatal("live node did not answer ping")
	}
	dead, err := Listen("127.0.0.1:0", Options{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	_ = dead.Close()
	nodes[0].SetTimeout(500 * time.Millisecond)
	if nodes[0].ping(addr) {
		t.Fatal("closed node answered ping")
	}
}

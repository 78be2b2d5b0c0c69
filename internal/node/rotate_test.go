package node

import (
	"testing"
	"time"

	"hirep/internal/pkc"
)

func TestLiveKeyRotation(t *testing.T) {
	nodes := fleet(t, 4, 1)
	agentNode, peer := nodes[0], nodes[1]
	relays := nodes[2:4]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)

	// Introduce the peer and accumulate reports under the old identity.
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, peerOnion); err != nil {
		t.Fatal(err)
	}
	three := []BatchReport{{Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: true}, {Subject: subject.ID, Positive: true}}
	if _, err := peer.ReportBatch(info, three, peerOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 3 })

	oldID := peer.ID()
	gotOld, gotNew, err := peer.RotateIdentity([]AgentInfo{info})
	if err != nil {
		t.Fatal(err)
	}
	if gotOld != oldID || gotNew != peer.ID() || gotOld == gotNew {
		t.Fatalf("rotation ids inconsistent: old=%s new=%s current=%s", gotOld.Short(), gotNew.Short(), peer.ID().Short())
	}
	// The agent must remap the key list: old gone, new present.
	waitFor(t, func() bool { return agentNode.Agent().KnowsKey(gotNew) })
	if agentNode.Agent().KnowsKey(oldID) {
		t.Fatal("agent still knows the old nodeID")
	}

	// The peer can immediately report under the new identity without
	// re-introduction: a one-way report needs no reply onion, and the old
	// one no longer verifies.
	if err := peer.reportTransaction(info, subject.ID, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == 4 })

	// The old reply onion is signed by the OLD identity; a request under the
	// new identity must not be answered through it (signature mismatch) —
	// otherwise anyone could redirect replies into someone else's onion.
	peer.SetTimeout(500 * time.Millisecond)
	if _, _, err := peer.RequestTrust(info, subject.ID, peerOnion); err == nil {
		t.Fatal("stale-signature reply onion accepted after rotation")
	}
	peer.SetTimeout(5 * time.Second)

	// With a fresh onion under the new identity, requests work and the
	// merged report history (3 good + 1 bad) is visible.
	newOnion, err := peer.BuildOnion(fetchRoute(t, peer, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	v, hasData, err := peer.RequestTrust(info, subject.ID, newOnion)
	if err != nil {
		t.Fatalf("post-rotation request via new onion: %v", err)
	}
	if !hasData || v >= 0.8 {
		t.Fatalf("reports not merged across rotation: v=%v hasData=%v", v, hasData)
	}
}

func TestRotationOfAgentKeepsServing(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	oldInfo := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	peerOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(oldInfo, subject.ID, peerOnion); err != nil {
		t.Fatal(err)
	}
	// The agent rotates; peers holding the OLD descriptor must still get
	// verifiable answers during the grace window (the agent answers under
	// the identity the request was sealed to).
	if _, _, err := agentNode.RotateIdentity(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(oldInfo, subject.ID, peerOnion); err != nil {
		t.Fatalf("old descriptor stopped working right after rotation: %v", err)
	}
	// A refreshed descriptor under the new identity works too.
	newOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	newInfo := agentNode.Info(newOnion)
	if newInfo.ID() == oldInfo.ID() {
		t.Fatal("agent ID unchanged after rotation")
	}
	if _, _, err := peer.RequestTrust(newInfo, subject.ID, peerOnion); err != nil {
		t.Fatalf("new descriptor rejected: %v", err)
	}
}

func TestRotationGraceWindowBounded(t *testing.T) {
	nd, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	ids := map[pkc.NodeID]bool{nd.ID(): true}
	for i := 0; i < 4; i++ {
		if _, _, err := nd.RotateIdentity(nil); err != nil {
			t.Fatal(err)
		}
		ids[nd.ID()] = true
	}
	if len(ids) != 5 {
		t.Fatalf("%d distinct identities after 4 rotations", len(ids))
	}
	if got := len(nd.identities()); got != 1+maxPrevIdentities {
		t.Fatalf("grace window holds %d identities, want %d", got, 1+maxPrevIdentities)
	}
}

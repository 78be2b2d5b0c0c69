package core

import (
	"testing"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

// These tests hold the payload-ownership rules of DESIGN.md §6 for hiREP:
// one message in flight per envelope, walk records valid until the walk
// drains, routes immutable after NewSystem.

// TestWarmTransactionAllocations: once a System has run a transaction,
// another allocates only its result, the state the agents keep and the odd
// growth of the simulator's event slab — nothing per message (a transaction
// here sends over a hundred).
func TestWarmTransactionAllocations(t *testing.T) {
	sys := buildSystem(t, 300, DefaultConfig(), 3)
	sys.Bootstrap()
	requestor := topology.NodeID(3)
	candidates := sys.PickCandidates(requestor)
	var msgs int64
	allocs := testing.AllocsPerRun(20, func() {
		msgs = sys.RunTransaction(requestor, candidates).TrustMessages
	})
	if allocs > 32 {
		t.Fatalf("%v allocations per warm transaction of %d messages, want <= 32", allocs, msgs)
	}
}

// TestWarmWalkAllocations: once the walk records and ranking scratch have
// grown, a refill walk allocates only the list entries it adds.
func TestWarmWalkAllocations(t *testing.T) {
	sys := buildSystem(t, 300, DefaultConfig(), 3)
	sys.Bootstrap()
	id := topology.NodeID(3)
	// Each run refills an empty list, made before the runs are counted.
	const runs = 20
	empty := make([]*trust.List[topology.NodeID, []topology.NodeID], runs+1)
	for i := range empty {
		var err error
		if empty[i], err = trust.NewList[topology.NodeID, []topology.NodeID](sys.cfg.TrustedAgents, sys.cfg.Alpha, sys.cfg.RemoveThreshold); err != nil {
			t.Fatal(err)
		}
	}
	minAdded := sys.cfg.TrustedAgents
	allocs := testing.AllocsPerRun(runs, func() {
		sys.peers[id].list, empty = empty[0], empty[1:]
		minAdded = min(minAdded, sys.acquireAgents(id))
	})
	if minAdded == 0 {
		t.Fatal("a refill walk added no agents")
	}
	if allocs > float64(minAdded) {
		t.Fatalf("%v allocations per refill walk adding at least %d entries, want at most one per entry", allocs, minAdded)
	}
}

// TestOnionHopAccounting: an envelope advanced in place counts one message
// and onionHopSize bytes per hop of a 5-relay route, and returns to the free
// list once, at the destination.
func TestOnionHopAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnionRelays = 5
	sys := buildSystem(t, 100, cfg, 5)
	from, to := topology.NodeID(1), topology.NodeID(2)
	path := sys.peers[to].path
	rep := &reportPayload{reporter: from, subject: 7, positive: true}
	ps := sys.payloadSize(rep)
	var wantBytes int64
	for layers := len(path); layers >= 1; layers-- {
		wantBytes += int64(onionHopSize(layers, ps))
	}
	sys.onionSend(from, kindReportID, path, rep)
	if len(sys.envFree) != 0 {
		t.Fatal("an envelope in flight is on the free list")
	}
	sys.net.Run(0)
	if got := sys.net.Count(KindReport); got != 6 || len(path) != 6 {
		t.Fatalf("%d messages over a %d-hop path, want 6 (5 relays + destination)", got, len(path))
	}
	if got := sys.net.Bytes(KindReport); got != wantBytes {
		t.Fatalf("%d bytes, want %d", got, wantBytes)
	}
	if len(sys.envFree) != 1 {
		t.Fatalf("%d envelopes on the free list after one onion, want 1", len(sys.envFree))
	}
}

// TestLossyAccounting: with hops dropped mid-route, every send is still
// either delivered or dropped once the network drains.
func TestLossyAccounting(t *testing.T) {
	const n, seed = 200, 11
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, rng.Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	ncfg := simnet.DefaultConfig(seed)
	ncfg.LossProb = 0.1
	net, err := simnet.New(g, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(net, trust.NewOracle(n, 0.5, rng.Split("oracle")), DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sys.Bootstrap()
	for i := 0; i < 30; i++ {
		sys.RunRandomTransaction()
	}
	if net.Dropped() == 0 {
		t.Fatal("no message was dropped")
	}
	if net.TotalMessages() != net.Delivered()+net.Dropped() {
		t.Fatalf("%d sent, %d delivered + %d dropped", net.TotalMessages(), net.Delivered(), net.Dropped())
	}
}

// TestTransactionRefusesPendingEvents: the System's records are only
// reusable on a drained network.
func TestTransactionRefusesPendingEvents(t *testing.T) {
	sys := buildSystem(t, 50, DefaultConfig(), 4)
	sys.net.After(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("RunTransaction started with an event pending")
		}
	}()
	sys.RunTransaction(0, sys.PickCandidates(0))
}

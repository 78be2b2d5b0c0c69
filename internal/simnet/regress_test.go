package simnet

import (
	"testing"
	"unsafe"

	"hirep/internal/topology"
)

// starNet builds a 3-node star (senders 1 and 2, receiver 0) whose two links
// have latencies differing by more than gap ms, searching config seeds until
// the latency draw cooperates. Returns the network plus the slow and fast
// sender IDs and their latencies to node 0.
func starNet(t *testing.T, proc, gap Time) (net *Network, slow, fast topology.NodeID, lSlow, lFast Time) {
	t.Helper()
	g := topology.NewGraph(3)
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 1000; seed++ {
		cfg := Config{LatencyMin: 20, LatencyMax: 60, ProcPerMsg: proc, Seed: seed}
		n, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l1, l2 := n.Latency(1, 0), n.Latency(2, 0)
		switch {
		case l1-l2 > gap:
			return n, 1, 2, l1, l2
		case l2-l1 > gap:
			return n, 2, 1, l2, l1
		}
	}
	t.Fatal("no seed below 1000 yields a latency gap — widen the config range")
	return nil, 0, 0, 0, 0
}

// Regression test: receiver queueing must be resolved in arrival order, not
// send order. The slow sender's message is sent first but arrives second; a
// send-order implementation (busyUntil advanced inside SendBytes) makes the
// fast message queue behind a message that has not even arrived yet.
func TestQueueingResolvedInArrivalOrder(t *testing.T) {
	const proc = Time(5)
	net, slow, fast, lSlow, lFast := starNet(t, proc, proc+1)

	type delivery struct {
		from topology.NodeID
		at   Time
	}
	var got []delivery
	net.SetHandler(0, func(n *Network, m Message) {
		got = append(got, delivery{m.From, n.Now()})
	})
	net.Send(slow, 0, "race", nil) // sent first, arrives second
	net.Send(fast, 0, "race", nil)
	net.Run(0)

	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].from != fast {
		t.Fatalf("first delivery from %d, want fast sender %d: send order leaked into queueing", got[0].from, fast)
	}
	// The fast message finds an idle receiver and is served on arrival; the
	// slow one arrives after that service window ends (gap > proc), so
	// neither queues behind the other.
	if want := lFast + proc; got[0].at != want {
		t.Fatalf("fast delivery at %v, want %v", got[0].at, want)
	}
	if want := lSlow + proc; got[1].at != want {
		t.Fatalf("slow delivery at %v, want %v", got[1].at, want)
	}
}

// Regression test: ResetCounters must zero the drop counter along with every
// other counter in the window.
func TestResetCountersZeroesDropped(t *testing.T) {
	g := testGraph(t, 10)
	net, err := New(g, Config{LatencyMin: 1, LatencyMax: 2, LossProb: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		net.Send(0, 3, "lossy", nil)
	}
	net.Run(0)
	if net.Dropped() == 0 {
		t.Fatal("loss model inert; test needs drops to be meaningful")
	}
	net.ResetCounters()
	if d := net.Dropped(); d != 0 {
		t.Fatalf("Dropped()=%d after ResetCounters, want 0", d)
	}
	if net.TotalMessages() != 0 || net.Delivered() != 0 || net.TotalBytes() != 0 || net.InFlight() != 0 {
		t.Fatal("ResetCounters left other counters nonzero")
	}
}

// Property test: at every observable instant the accounting identity
//
//	TotalMessages() == Delivered() + Dropped() + InFlight()
//
// holds — across loss probabilities, partial Run windows, and interleaved
// ResetCounters calls (which open a fresh window; deliveries of messages sent
// before a reset still run handlers but never count into the new window).
func TestCounterInvariantAcrossLossAndResets(t *testing.T) {
	check := func(t *testing.T, net *Network, when string) {
		t.Helper()
		total, sum := net.TotalMessages(), net.Delivered()+net.Dropped()+net.InFlight()
		if total != sum {
			t.Fatalf("%s: total=%d but delivered+dropped+inflight=%d (%d+%d+%d)",
				when, total, sum, net.Delivered(), net.Dropped(), net.InFlight())
		}
	}
	for _, loss := range []float64{0, 0.1, 0.5} {
		g := testGraph(t, 30)
		net, err := New(g, Config{LatencyMin: 5, LatencyMax: 15, ProcPerMsg: 1, LossProb: loss, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 30; id++ {
			net.SetHandler(topology.NodeID(id), func(*Network, Message) {})
		}
		rng := net.RNGFor("invariant", 0)
		for round := 0; round < 6; round++ {
			for i := 0; i < 50; i++ {
				from := topology.NodeID(rng.Intn(30))
				to := topology.NodeID(rng.Intn(30))
				if from == to {
					continue
				}
				net.Send(from, to, "prop", nil)
				check(t, net, "after send")
			}
			net.Run(rng.Intn(40) + 1) // partial drain
			check(t, net, "after partial run")
			if round%2 == 1 {
				net.ResetCounters()
				check(t, net, "after reset")
				// Pre-reset messages are still pending delivery; draining
				// them must not perturb the new window's identity.
				net.Run(10)
				check(t, net, "after post-reset drain")
			}
		}
		net.Run(0)
		check(t, net, "after full drain")
		if net.InFlight() != 0 {
			t.Fatalf("loss=%v: %d messages in flight after full drain", loss, net.InFlight())
		}
	}
}

// The send fast path must not allocate: kind accounting is a slice index and
// scheduling reuses slab/heap capacity. Guards the tentpole optimisation
// against regressions (a closure, a boxed value, or a map lookup would show
// up here).
func TestSendZeroAllocs(t *testing.T) {
	net := testNet(t, 64)
	kind := InternKind("alloc-probe")
	// Warm every growable structure past the sizes the measured loop needs:
	// heap keys, event slab, free list, and the kind-counter slices.
	for i := 0; i < 4096; i++ {
		net.SendKind(topology.NodeID(i%64), topology.NodeID((i+1)%64), kind, nil)
	}
	net.Run(0)
	avg := testing.AllocsPerRun(2000, func() {
		net.SendKind(3, 4, kind, nil)
	})
	if avg != 0 {
		t.Fatalf("SendKind allocates %v per call, want 0", avg)
	}
	net.Run(0)
}

// An event record is 40 bytes: int32 endpoints, a timer's callback in the
// payload slot, and no phase or wait (the key and the completion carry
// them).
func TestEventRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 40 {
		t.Fatalf("event record is %d bytes, want 40", size)
	}
}

// Epoch windows: a message sent before ResetCounters must still reach its
// handler afterwards, but must not count as a delivery in the new window.
func TestResetCountersEpochWindow(t *testing.T) {
	net := testNet(t, 10)
	handled := 0
	net.SetHandler(3, func(*Network, Message) { handled++ })
	net.Send(0, 3, "pre", nil)
	net.ResetCounters()
	net.Send(0, 3, "post", nil)
	net.Run(0)
	if handled != 2 {
		t.Fatalf("handlers ran %d times, want 2 (pre-reset message lost)", handled)
	}
	if got := net.Delivered(); got != 1 {
		t.Fatalf("Delivered()=%d, want 1 (only the post-reset send counts)", got)
	}
	if got := net.TotalMessages(); got != 1 {
		t.Fatalf("TotalMessages()=%d, want 1", got)
	}
}

// PeakQueue and BusyTime are part of the new telemetry surface; sanity-check
// they move under a burst.
func TestTelemetryCounters(t *testing.T) {
	g := topology.NewGraph(11)
	for i := 1; i <= 10; i++ {
		if err := g.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := New(g, Config{LatencyMin: 10, LatencyMax: 10, ProcPerMsg: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.SetHandler(0, func(*Network, Message) {})
	for i := 1; i <= 10; i++ {
		net.Send(topology.NodeID(i), 0, "burst", nil)
	}
	net.Run(0)
	if net.PeakQueue() < 10 {
		t.Fatalf("PeakQueue()=%d, want >=10 for a 10-message burst", net.PeakQueue())
	}
	// 10 messages, 2 ms service each, all on node 0.
	if got := net.BusyTime(0); got != 20 {
		t.Fatalf("BusyTime(0)=%v, want 20", got)
	}
	for i := 1; i <= 10; i++ {
		if net.BusyTime(topology.NodeID(i)) != 0 {
			t.Fatalf("sender %d accrued busy time", i)
		}
	}
}

// Interned kinds resolve to the same counters as their string names.
func TestKindInterning(t *testing.T) {
	net := testNet(t, 10)
	k := InternKind("interned/ping")
	if k2 := InternKind("interned/ping"); k2 != k {
		t.Fatalf("re-interning returned %d, want %d", k2, k)
	}
	if k.String() != "interned/ping" {
		t.Fatalf("Kind.String()=%q", k.String())
	}
	net.SendKind(0, 3, k, nil)
	net.Send(0, 3, "interned/ping", nil)
	net.Run(0)
	if got := net.Count("interned/ping"); got != 2 {
		t.Fatalf("Count by name = %d, want 2", got)
	}
	if got := net.CountKind(k); got != 2 {
		t.Fatalf("CountKind = %d, want 2", got)
	}
	if got := net.Counts()["interned/ping"]; got != 2 {
		t.Fatalf("Counts() map = %d, want 2", got)
	}
}

// The observer hook receives one Delivery per handled message with sane
// latency/queueing decomposition, and a RunDone snapshot per Run call.
type probeObserver struct {
	deliveries int
	queuedSum  float64
	runs       int
	events     int64
}

func (p *probeObserver) Delivery(kind string, latencyMs, queuedMs float64) {
	p.deliveries++
	p.queuedSum += queuedMs
	if latencyMs < queuedMs {
		panic("queueing delay exceeds total delivery latency")
	}
}

func (p *probeObserver) RunDone(r RunStats) {
	p.runs++
	p.events += r.Events
}

func TestObserverHook(t *testing.T) {
	g := topology.NewGraph(4)
	for i := 1; i <= 3; i++ {
		if err := g.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := New(g, Config{LatencyMin: 10, LatencyMax: 10, ProcPerMsg: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var probe probeObserver
	net.SetObserver(&probe)
	net.SetHandler(0, func(*Network, Message) {})
	for i := 1; i <= 3; i++ {
		net.Send(topology.NodeID(i), 0, "obs", nil)
	}
	net.Run(0)
	if probe.deliveries != 3 {
		t.Fatalf("observer saw %d deliveries, want 3", probe.deliveries)
	}
	// All three arrive at t=10; services end at 13, 16, 19 — queueing of
	// 0+3+6 ms.
	if probe.queuedSum != 9 {
		t.Fatalf("queued sum %v ms, want 9", probe.queuedSum)
	}
	if probe.runs != 1 || probe.events == 0 {
		t.Fatalf("RunDone runs=%d events=%d", probe.runs, probe.events)
	}
}

package simnet

import (
	"testing"

	"hirep/internal/topology"
	"hirep/internal/xrand"
)

func testGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: n, AvgDegree: 4}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testNet(t *testing.T, n int) *Network {
	t.Helper()
	net, err := New(testGraph(t, n), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LatencyMin: -1, LatencyMax: 5},
		{LatencyMin: 10, LatencyMax: 5},
		{LatencyMin: 1, LatencyMax: 2, ProcPerMsg: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if DefaultConfig(1).Validate() != nil {
		t.Error("default config invalid")
	}
}

func TestSendDelivers(t *testing.T) {
	net := testNet(t, 10)
	var got *Message
	net.SetHandler(3, func(_ *Network, m Message) { got = &m })
	net.Send(0, 3, "ping", "hello")
	net.Run(0)
	if got == nil {
		t.Fatal("message not delivered")
	}
	if got.From != 0 || got.To != 3 || got.Kind != "ping" || got.Payload.(string) != "hello" {
		t.Fatalf("message corrupted: %+v", got)
	}
}

func TestDeliveryTimeIncludesLatencyAndProc(t *testing.T) {
	net := testNet(t, 10)
	var at Time
	net.SetHandler(1, func(n *Network, _ Message) { at = n.Now() })
	net.Send(0, 1, "x", nil)
	net.Run(0)
	want := net.Latency(0, 1) + DefaultConfig(1).ProcPerMsg
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLatencySymmetricStable(t *testing.T) {
	net := testNet(t, 50)
	for a := topology.NodeID(0); a < 10; a++ {
		for b := topology.NodeID(0); b < 10; b++ {
			if a == b {
				continue
			}
			l1, l2 := net.Latency(a, b), net.Latency(b, a)
			if l1 != l2 {
				t.Fatalf("latency asymmetric for (%d,%d)", a, b)
			}
			if l1 < 20 || l1 > 60 {
				t.Fatalf("latency %v outside configured [20,60]", l1)
			}
		}
	}
}

func TestLatencyVaries(t *testing.T) {
	net := testNet(t, 100)
	seen := map[Time]bool{}
	for i := topology.NodeID(1); i < 50; i++ {
		seen[net.Latency(0, i)] = true
	}
	if len(seen) < 40 {
		t.Fatalf("latency function not spreading: %d distinct values", len(seen))
	}
}

func TestQueueingDelaysBurst(t *testing.T) {
	// 100 messages from distinct senders converge on node 5; with serial
	// processing the last delivery must be later than latency+proc alone.
	g := topology.NewGraph(101)
	for i := 1; i <= 100; i++ {
		_ = g.AddEdge(0, topology.NodeID(i))
	}
	cfg := Config{LatencyMin: 10, LatencyMax: 10, ProcPerMsg: 1, Seed: 1}
	net, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last Time
	count := 0
	net.SetHandler(5, func(n *Network, _ Message) { last = n.Now(); count++ })
	for i := 1; i <= 100; i++ {
		if i == 5 {
			continue
		}
		net.Send(topology.NodeID(i), 5, "burst", nil)
	}
	net.Run(0)
	if count != 99 {
		t.Fatalf("delivered %d, want 99", count)
	}
	// All arrive at t=10; 99 serial services of 1 ms end at 109.
	if last != 109 {
		t.Fatalf("last delivery at %v, want 109 (queueing broken)", last)
	}
}

func TestEventOrdering(t *testing.T) {
	net := testNet(t, 5)
	var order []int
	net.After(30, func() { order = append(order, 3) })
	net.After(10, func() { order = append(order, 1) })
	net.After(20, func() { order = append(order, 2) })
	net.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	net := testNet(t, 5)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		net.After(5, func() { order = append(order, i) })
	}
	net.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestTimeMonotonic(t *testing.T) {
	net := testNet(t, 20)
	var prev Time
	for i := 0; i < 50; i++ {
		to := topology.NodeID(i % 20)
		net.SetHandler(to, func(n *Network, _ Message) {
			if n.Now() < prev {
				t.Fatal("time went backwards")
			}
			prev = n.Now()
		})
		net.Send(0, to, "m", nil)
	}
	net.Run(0)
}

func TestNestedSends(t *testing.T) {
	// A handler that forwards: 0 -> 1 -> 2 -> 3.
	net := testNet(t, 10)
	reached := false
	for i := 1; i <= 2; i++ {
		i := i
		net.SetHandler(topology.NodeID(i), func(n *Network, m Message) {
			n.Send(m.To, topology.NodeID(i+1), "chain", nil)
		})
	}
	net.SetHandler(3, func(_ *Network, _ Message) { reached = true })
	net.Send(0, 1, "chain", nil)
	net.Run(0)
	if !reached {
		t.Fatal("chain did not complete")
	}
	if net.Count("chain") != 3 {
		t.Fatalf("chain counted %d messages, want 3", net.Count("chain"))
	}
}

func TestCounters(t *testing.T) {
	net := testNet(t, 10)
	net.Send(0, 1, "a", nil)
	net.Send(0, 2, "a", nil)
	net.Send(0, 3, "b", nil)
	if net.Count("a") != 2 || net.Count("b") != 1 || net.TotalMessages() != 3 {
		t.Fatalf("counts %v total %d", net.Counts(), net.TotalMessages())
	}
	net.Run(0)
	if net.Delivered() != 3 {
		t.Fatalf("delivered %d", net.Delivered())
	}
	net.ResetCounters()
	if net.TotalMessages() != 0 || net.Count("a") != 0 || net.Delivered() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	net := testNet(t, 5)
	// Self-perpetuating event chain.
	var loop func()
	loop = func() { net.After(1, loop) }
	net.After(1, loop)
	processed := net.Run(100)
	if processed != 100 {
		t.Fatalf("guard processed %d events, want 100", processed)
	}
	if net.Pending() == 0 {
		t.Fatal("pending events should remain after guard stop")
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	net := testNet(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send(0, 99, "x", nil)
}

func TestAfterNegativePanics(t *testing.T) {
	net := testNet(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.After(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	net := testNet(t, 5)
	net.After(10, func() {})
	net.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.At(5, func() {})
}

func TestRNGForDeterministic(t *testing.T) {
	a := testNet(t, 5).RNGFor("proto", 3)
	b := testNet(t, 5).RNGFor("proto", 3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNGFor not deterministic")
		}
	}
	c := testNet(t, 5).RNGFor("proto", 4)
	if c.Uint64() == testNet(t, 5).RNGFor("proto", 3).Uint64() {
		// one collision is possible but the first draw matching is suspicious
		d := testNet(t, 5).RNGFor("proto", 4)
		e := testNet(t, 5).RNGFor("proto", 3)
		same := 0
		for i := 0; i < 16; i++ {
			if d.Uint64() == e.Uint64() {
				same++
			}
		}
		if same > 1 {
			t.Fatal("per-node RNGs identical")
		}
	}
}

func TestRunReentryPanics(t *testing.T) {
	net := testNet(t, 5)
	net.After(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		net.Run(0)
	})
	net.Run(0)
}

func TestByteCounters(t *testing.T) {
	net := testNet(t, 10)
	net.SendBytes(0, 1, "a", nil, 100)
	net.SendBytes(0, 2, "a", nil, 50)
	net.Send(0, 3, "b", nil) // size 0
	if net.Bytes("a") != 150 || net.Bytes("b") != 0 {
		t.Fatalf("byte counters: a=%d b=%d", net.Bytes("a"), net.Bytes("b"))
	}
	if net.TotalBytes() != 150 {
		t.Fatalf("total bytes %d", net.TotalBytes())
	}
	net.ResetCounters()
	if net.TotalBytes() != 0 || net.Bytes("a") != 0 {
		t.Fatal("byte counters not reset")
	}
}

func TestSendBytesNegativePanics(t *testing.T) {
	net := testNet(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SendBytes(0, 1, "x", nil, -1)
}

func TestLossModel(t *testing.T) {
	g := testGraph(t, 50)
	cfg := DefaultConfig(5)
	cfg.LossProb = 0.5
	net, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	net.SetHandler(1, func(_ *Network, _ Message) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		net.Send(0, 1, "lossy", nil)
	}
	net.Run(0)
	if net.TotalMessages() != sent {
		t.Fatalf("sent counter %d", net.TotalMessages())
	}
	if net.Dropped() == 0 {
		t.Fatal("nothing dropped at 50% loss")
	}
	frac := float64(delivered) / sent
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivered fraction %.3f, want ~0.5", frac)
	}
	if int64(delivered)+net.Dropped() != sent {
		t.Fatal("delivered + dropped != sent")
	}
}

func TestLossConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LossProb = 1
	if cfg.Validate() == nil {
		t.Fatal("LossProb=1 accepted")
	}
	cfg.LossProb = -0.1
	if cfg.Validate() == nil {
		t.Fatal("negative LossProb accepted")
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() int64 {
		g := testGraph(t, 30)
		cfg := DefaultConfig(9)
		cfg.LossProb = 0.3
		net, _ := New(g, cfg)
		for i := 0; i < 500; i++ {
			net.Send(0, 1, "x", nil)
		}
		net.Run(0)
		return net.Dropped()
	}
	if run() != run() {
		t.Fatal("loss draws not deterministic")
	}
}

// delivery is one event seen by recordingTracer.
type delivery struct{ at, sent, queued float64 }

// recordingTracer keeps every delivery it is shown.
type recordingTracer struct{ events []delivery }

func (r *recordingTracer) Record(at, sent, queued float64, kind string, from, to int) {
	r.events = append(r.events, delivery{at, sent, queued})
}

func TestTracerWiredIntoSimnet(t *testing.T) {
	net := testNet(t, 20)
	r := &recordingTracer{}
	net.SetTracer(r)
	net.Send(0, 1, "demo", nil)
	net.Send(1, 2, "demo", nil)
	net.Run(0)
	evs := r.events
	if len(evs) != 2 {
		t.Fatalf("traced %d deliveries", len(evs))
	}
	if evs[0].at <= 0 {
		t.Fatal("delivery time not recorded")
	}
	// Tracing is at delivery time: events are time-ordered.
	if evs[1].at < evs[0].at {
		t.Fatal("trace out of order")
	}
	// The delivery record decomposes: send instant plus in-flight time give
	// the delivery instant, and queueing delay is bounded by the total.
	for _, ev := range evs {
		if ev.at <= ev.sent {
			t.Fatalf("delivery at %v not after send at %v", ev.at, ev.sent)
		}
		if ev.queued < 0 || ev.queued > ev.at-ev.sent {
			t.Fatalf("queueing delay %v outside [0, %v]", ev.queued, ev.at-ev.sent)
		}
	}
}

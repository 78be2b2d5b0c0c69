package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hirep/internal/metrics"
	"hirep/internal/wire"
)

// sessionServer runs ServeConn on every accepted connection with the given
// handler and returns the listener address.
func sessionServer(t *testing.T, cfg ServerConfig, h Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go ServeConn(nc, cfg, h)
		}
	}()
	return ln.Addr().String()
}

// echoHandler answers TPing with TPong carrying the same payload. A payload
// whose first byte is odd sleeps first, forcing responses out of order.
func echoHandler(delayOdd time.Duration) Handler {
	return func(typ wire.MsgType, payload []byte, r Responder) {
		if typ != wire.TPing {
			return
		}
		if delayOdd > 0 && len(payload) > 0 && payload[0]%2 == 1 {
			time.Sleep(delayOdd)
		}
		_ = r.Respond(wire.TPong, payload)
	}
}

func newTestPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	p := New(opts)
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestPooledRoundTrip(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	p := newTestPool(t, Options{})
	for i := 0; i < 50; i++ {
		payload := []byte{byte(i), 0xAB}
		typ, resp, err := p.RoundTrip(addr, wire.TPing, payload, time.Second)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if typ != wire.TPong || len(resp) != 2 || resp[0] != byte(i) {
			t.Fatalf("round trip %d: got (%v, %v)", i, typ, resp)
		}
	}
	// 50 frames, 1 dial: the pool reused the session connection.
	snap := p.Metrics().Snapshot()
	if got := snap["transport_dials_total"]; got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
	if got := snap["transport_dials_avoided_total"]; got != 49 {
		t.Fatalf("dials avoided = %d, want 49", got)
	}
	if p.ConnCount() != 1 {
		t.Fatalf("conn count = %d", p.ConnCount())
	}
}

// TestOutOfOrderResponses pins the stream-id matching: two requests on one
// connection, the first delayed server-side, must each get their own answer.
func TestOutOfOrderResponses(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(100*time.Millisecond))
	p := newTestPool(t, Options{MaxConnsPerPeer: 1})

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// payload[0]=1 → slow path, payload[0]=2 → fast path.
			_, resp, err := p.RoundTrip(addr, wire.TPing, []byte{byte(i + 1)}, time.Second)
			results[i], errs[i] = resp, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(results[i]) != 1 || results[i][0] != byte(i+1) {
			t.Fatalf("request %d got %v — responses cross-matched", i, results[i])
		}
	}
	if p.ConnCount() != 1 {
		t.Fatalf("out-of-order pair used %d conns, want 1", p.ConnCount())
	}
}

// TestConcurrentRoundTripsOneConn hammers a single pooled connection from
// many goroutines (run with -race). Every response must match its request
// even though the server answers odd payloads late.
func TestConcurrentRoundTripsOneConn(t *testing.T) {
	addr := sessionServer(t, ServerConfig{MaxStreams: 128}, echoHandler(time.Millisecond))
	p := newTestPool(t, Options{MaxConnsPerPeer: 1, MaxStreams: 128})

	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := make([]byte, 9)
				payload[0] = byte((g + i) % 7) // mix of fast and slow
				binary.BigEndian.PutUint64(payload[1:], uint64(g*1000+i))
				typ, resp, err := p.RoundTrip(addr, wire.TPing, payload, 5*time.Second)
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if typ != wire.TPong || len(resp) != 9 ||
					binary.BigEndian.Uint64(resp[1:]) != uint64(g*1000+i) {
					mismatches.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d responses matched the wrong request", n)
	}
	if p.ConnCount() != 1 {
		t.Fatalf("hammer used %d conns, want 1", p.ConnCount())
	}
	snap := p.Metrics().Snapshot()
	if got := snap["transport_frames_in_total"]; got != goroutines*perG {
		t.Fatalf("frames in = %d, want %d", got, goroutines*perG)
	}
}

// TestSaturationSheds pins the backpressure contract: windows full plus the
// conn cap reached must shed with ErrSaturated, not queue forever.
func TestSaturationSheds(t *testing.T) {
	release := make(chan struct{})
	h := func(typ wire.MsgType, payload []byte, r Responder) {
		<-release
		_ = r.Respond(wire.TPong, payload)
	}
	addr := sessionServer(t, ServerConfig{MaxStreams: 4}, h)
	p := newTestPool(t, Options{MaxConnsPerPeer: 1, MaxStreams: 2})

	// Fill the single conn's 2-slot window with requests the server holds.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := p.RoundTrip(addr, wire.TPing, []byte{0}, 2*time.Second)
			if err != nil {
				t.Errorf("held round trip: %v", err)
			}
		}()
	}
	// Wait until both slots are reserved.
	deadline := time.Now().Add(time.Second)
	for p.inflightTotal() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.inflightTotal() != 2 {
		t.Fatalf("window never filled: inflight = %d", p.inflightTotal())
	}

	// Third request: window full, conn cap reached → typed shed.
	if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{0}, time.Second); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	if got := p.Metrics().Snapshot()["transport_shed_total"]; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	wg.Wait()
}

// TestSecondConnWhenWindowFull verifies overflow dials a second connection
// before shedding when the per-peer cap allows it.
func TestSecondConnWhenWindowFull(t *testing.T) {
	release := make(chan struct{})
	h := func(typ wire.MsgType, payload []byte, r Responder) {
		if len(payload) > 0 && payload[0] == 1 {
			<-release
		}
		_ = r.Respond(wire.TPong, payload)
	}
	addr := sessionServer(t, ServerConfig{}, h)
	p := newTestPool(t, Options{MaxConnsPerPeer: 2, MaxStreams: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{1}, 2*time.Second); err != nil {
			t.Errorf("held round trip: %v", err)
		}
	}()
	deadline := time.Now().Add(time.Second)
	for p.inflightTotal() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Second request overflows the 1-slot window → second dial, not a shed.
	if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{0}, time.Second); err != nil {
		t.Fatalf("overflow round trip: %v", err)
	}
	if p.ConnCount() != 2 {
		t.Fatalf("conn count = %d, want 2", p.ConnCount())
	}
	close(release)
	wg.Wait()
}

// TestPeerClosingOnHelloIsError: a peer that reads the hello and closes
// without acking is a failed dial — no fallback, nothing pooled.
func TestPeerClosingOnHelloIsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				_ = nc.SetDeadline(time.Now().Add(time.Second))
				_, _, _ = wire.ReadFrame(nc)
			}(nc)
		}
	}()
	p := newTestPool(t, Options{})
	if _, _, err := p.RoundTrip(ln.Addr().String(), wire.TPing, []byte{7}, time.Second); err == nil {
		t.Fatal("round trip to a peer that closed on the hello succeeded")
	}
	if p.ConnCount() != 0 {
		t.Fatalf("rejected hello left %d pooled conns", p.ConnCount())
	}
	if got := p.Metrics().Snapshot()["transport_negotiate_fail_total"]; got != 1 {
		t.Fatalf("negotiate failures = %d, want 1", got)
	}
}

// TestOneShotClientAgainstSessionServer: a DirectRoundTrip client hitting a
// ServeConn server is served its single frame on the same socket.
func TestOneShotClientAgainstSessionServer(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	dial := func(a string, d time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", a, d)
	}
	typ, resp, err := DirectRoundTrip(dial, addr, wire.TPing, []byte{3}, time.Second)
	if err != nil {
		t.Fatalf("direct against session server: %v", err)
	}
	if typ != wire.TPong || len(resp) != 1 || resp[0] != 3 {
		t.Fatalf("got (%v, %v)", typ, resp)
	}
}

// TestDeadPeerTimesOut: a peer that accepts and says nothing must surface an
// error within budget.
func TestDeadPeerTimesOut(t *testing.T) {
	// A listener that accepts and then never reads or writes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			select {} // hold the conn open, say nothing
		}
	}()
	p := newTestPool(t, Options{})
	_, _, err = p.RoundTrip(ln.Addr().String(), wire.TPing, nil, 100*time.Millisecond)
	if err == nil {
		t.Fatal("black-holed peer round trip succeeded")
	}
}

func TestIdleReaping(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	p := newTestPool(t, Options{IdleTimeout: 50 * time.Millisecond})
	if _, _, err := p.RoundTrip(addr, wire.TPing, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if p.ConnCount() != 1 {
		t.Fatalf("conn count = %d", p.ConnCount())
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.ConnCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.ConnCount() != 0 {
		t.Fatal("idle conn was never reaped")
	}
	if got := p.Metrics().Snapshot()["transport_idle_reaped_total"]; got != 1 {
		t.Fatalf("reap counter = %d, want 1", got)
	}
	// The pool dials fresh after a reap.
	if _, _, err := p.RoundTrip(addr, wire.TPing, nil, time.Second); err != nil {
		t.Fatalf("post-reap round trip: %v", err)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	p := New(Options{})
	if _, _, err := p.RoundTrip(addr, wire.TPing, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RoundTrip(addr, wire.TPing, nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
	if err := p.Send(addr, wire.TPing, nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRequestTimeoutLeavesConnUsable: one slow response must not poison the
// connection for later requests, and the late response is counted orphan.
func TestRequestTimeoutLeavesConnUsable(t *testing.T) {
	addr := sessionServer(t, ServerConfig{}, echoHandler(150*time.Millisecond))
	p := newTestPool(t, Options{})
	if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{1}, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// Fast request on the same conn still works.
	if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{2}, time.Second); err != nil {
		t.Fatalf("after timeout: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if p.Metrics().Snapshot()["transport_orphan_responses_total"] == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("orphan counter = %d, want 1",
		p.Metrics().Snapshot()["transport_orphan_responses_total"])
}

// TestStalledConnCondemned: enough consecutive timeouts with zero inbound
// frames must discard the connection so the next call redials.
func TestStalledConnCondemned(t *testing.T) {
	mute := make(chan struct{})
	h := func(typ wire.MsgType, payload []byte, r Responder) {
		<-mute // never answer
	}
	addr := sessionServer(t, ServerConfig{MaxStreams: 16}, h)
	defer close(mute)
	p := newTestPool(t, Options{MaxConnsPerPeer: 1, MaxStreams: 16})
	for i := 0; i < stalledTimeouts; i++ {
		if _, _, err := p.RoundTrip(addr, wire.TPing, nil, 20*time.Millisecond); err == nil {
			t.Fatalf("mute peer answered round trip %d", i)
		}
	}
	if p.ConnCount() != 0 {
		t.Fatalf("stalled conn survived %d timeouts", stalledTimeouts)
	}
	if got := p.Metrics().Snapshot()["transport_stalled_conns_total"]; got != 1 {
		t.Fatalf("stalled counter = %d, want 1", got)
	}
}

// TestSendOverSession: fire-and-forget frames ride stream id 0 and reach
// the handler without a response.
func TestSendOverSession(t *testing.T) {
	var got atomic.Int64
	h := func(typ wire.MsgType, payload []byte, r Responder) {
		if typ == wire.TOnion {
			got.Add(1)
		}
	}
	addr := sessionServer(t, ServerConfig{}, h)
	p := newTestPool(t, Options{})
	for i := 0; i < 10; i++ {
		if err := p.Send(addr, wire.TOnion, []byte("o"), time.Second); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for got.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() != 10 {
		t.Fatalf("server saw %d sends, want 10", got.Load())
	}
	if dials := p.Metrics().Snapshot()["transport_dials_total"]; dials != 1 {
		t.Fatalf("sends dialed %d times, want 1", dials)
	}
}

// TestMetricsSharedRegistry: a caller-supplied registry receives the
// transport counters (the node wires its own registry through).
func TestMetricsSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	p := newTestPool(t, Options{Metrics: reg})
	if _, _, err := p.RoundTrip(addr, wire.TPing, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot()["transport_dials_total"] != 1 {
		t.Fatalf("shared registry missing transport counters: %v", reg.Snapshot())
	}
}

// TestWindowNegotiation: the effective window is min(client, server)
// advertisements — a server advertising 1 stream caps a client asking 64.
func TestWindowNegotiation(t *testing.T) {
	release := make(chan struct{})
	h := func(typ wire.MsgType, payload []byte, r Responder) {
		if len(payload) > 0 && payload[0] == 1 {
			<-release
		}
		_ = r.Respond(wire.TPong, payload)
	}
	addr := sessionServer(t, ServerConfig{MaxStreams: 1}, h)
	p := newTestPool(t, Options{MaxConnsPerPeer: 1, MaxStreams: 64})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{1}, 2*time.Second); err != nil {
			t.Errorf("held round trip: %v", err)
		}
	}()
	deadline := time.Now().Add(time.Second)
	for p.inflightTotal() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The negotiated window is 1, the conn cap is 1 → immediate shed.
	if _, _, err := p.RoundTrip(addr, wire.TPing, []byte{0}, time.Second); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated under negotiated window 1, got %v", err)
	}
	close(release)
	wg.Wait()
}

func TestHelloGarbageRejected(t *testing.T) {
	// A client that sends THello with a garbage payload gets no ack.
	addr := sessionServer(t, ServerConfig{}, echoHandler(0))
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.THello, []byte("not a hello")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := wire.ReadFrame(nc); err == nil {
		t.Fatal("garbage hello was acked")
	}
}

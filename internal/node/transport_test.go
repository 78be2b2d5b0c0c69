package node

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
)

// TestConnFloodShedsSessions is the goroutine-exhaustion regression: with a
// small session cap, a flood of idle connections must be shed at accept
// (counted in Stats) instead of each pinning a handler goroutine, and the
// node must serve normally once the flood subsides.
func TestConnFloodShedsSessions(t *testing.T) {
	n, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	before := runtime.NumGoroutine()
	const flood = 48
	conns := make([]net.Conn, 0, flood)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < flood; i++ {
		c, err := net.DialTimeout("tcp", n.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	// The accept loop processes the flood quickly: at most MaxSessions conns
	// get goroutines, the rest are closed and counted.
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().SessionsShed < flood-4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	shed := n.Stats().SessionsShed
	if shed < flood-4 {
		t.Fatalf("sessions shed = %d, want >= %d", shed, flood-4)
	}
	if during := runtime.NumGoroutine(); during > before+4+16 {
		t.Fatalf("flood grew goroutines %d -> %d; cap is not bounding handlers", before, during)
	}
	if got := n.Metrics().Snapshot()["node_sessions_shed_total"]; got != shed {
		t.Fatalf("metrics shed counter %d != stats %d", got, shed)
	}

	// Release the flood; the node serves again once slots free up.
	for _, c := range conns {
		c.Close()
	}
	conns = nil
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	deadline = time.Now().Add(3 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		if peer.Ping(n.Addr()) {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("node never recovered after the flood")
	}
}

// TestOneShotClientServed pins the one-shot-server case: a dial-per-frame
// client (the BenchmarkRoundTripDirect baseline) is served by a pooled
// node's listener.
func TestOneShotClientServed(t *testing.T) {
	n, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	dial := resilience.NetDialer("tcp")
	typ, resp, err := transport.DirectRoundTrip(dial, n.Addr(), wire.TPing, []byte("nonce"), 2*time.Second)
	if err != nil {
		t.Fatalf("one-shot client against pooled node: %v", err)
	}
	if typ != wire.TPong || string(resp) != "nonce" {
		t.Fatalf("one-shot client got (%v, %q)", typ, resp)
	}
}

// TestFrameAccounting verifies the per-type inbound counters and the
// read/decode error split that replaced the old countFrame(0, false) lump.
func TestFrameAccounting(t *testing.T) {
	n, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for i := 0; i < 3; i++ {
		if !peer.Ping(n.Addr()) {
			t.Fatalf("ping %d failed", i)
		}
	}
	snap := n.Metrics().Snapshot()
	if got := snap["node_frames_in_ping_total"]; got != 3 {
		t.Fatalf("per-type ping counter = %d, want 3", got)
	}
	if n.Stats().FramesIn < 3 {
		t.Fatalf("frames in = %d", n.Stats().FramesIn)
	}

	// A malformed frame (oversized length prefix) counts as a decode error,
	// not a transport read error.
	raw, err := net.DialTimeout("tcp", n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x05}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().FramesDecodeErr == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := n.Stats()
	if st.FramesDecodeErr != 1 {
		t.Fatalf("decode errors = %d, want 1 (stats %v)", st.FramesDecodeErr, st)
	}
	if st.FramesBad != st.FramesReadErr+st.FramesDecodeErr {
		t.Fatalf("FramesBad %d != read %d + decode %d", st.FramesBad, st.FramesReadErr, st.FramesDecodeErr)
	}
	if got := n.Metrics().Snapshot()["node_frames_decode_err_total"]; got != 1 {
		t.Fatalf("decode error metric = %d, want 1", got)
	}

	// A torn frame (connection cut mid-body) counts as a read error.
	raw2, err := net.DialTimeout("tcp", n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw2.Write([]byte{0, 0, 0, 10, byte(wire.TPing), 1, 2}); err != nil {
		t.Fatal(err)
	}
	raw2.Close()
	deadline = time.Now().Add(2 * time.Second)
	for n.Stats().FramesReadErr == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.Stats().FramesReadErr; got != 1 {
		t.Fatalf("read errors = %d, want 1", got)
	}
}

// TestPooledNodesReuseConnections: protocol traffic between two live nodes
// must multiplex over the pool instead of dialing per frame.
func TestPooledNodesReuseConnections(t *testing.T) {
	var dials atomic.Int64
	countingDialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	}
	n, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second, Dialer: countingDialer})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const pings = 20
	for i := 0; i < pings; i++ {
		if !peer.Ping(n.Addr()) {
			t.Fatalf("ping %d failed", i)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("%d pings used %d dials, want 1", pings, d)
	}
	snap := peer.Metrics().Snapshot()
	if got := snap["transport_dials_avoided_total"]; got != pings-1 {
		t.Fatalf("dials avoided = %d, want %d", got, pings-1)
	}
}

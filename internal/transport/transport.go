// Package transport is the live node's connection layer (DESIGN.md §9): a
// per-peer pool of persistent, stream-multiplexed connections with bounded
// in-flight windows and idle reaping.
//
// hiREP's headline claim is low messaging overhead — a peer talks only to
// its small agent set — so the same few links carry all of a node's
// traffic. Paying a TCP dial + teardown per frame on those links (the
// pre-transport node did) dominates the hot path; the pool amortizes the
// dial across thousands of frames and pipelines request/response pairs on
// one connection, with responses matched by stream id in any order.
//
// Wire shape of a pooled connection:
//
//	dial → THello (plain frame) → THelloAck (plain frame) → stream frames
package transport

import (
	"bufio"
	"errors"
	"sync"
	"time"

	"hirep/internal/metrics"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// Errors returned by the pool.
var (
	// ErrClosed reports an operation on a closed pool.
	ErrClosed = errors.New("transport: pool closed")
	// ErrSaturated is the typed shed error: every pooled connection to the
	// peer is at its in-flight window and the per-peer connection cap is
	// reached, so the frame was dropped instead of queued unboundedly.
	ErrSaturated = errors.New("transport: peer saturated, frame shed")
	// ErrTimeout reports a request whose response did not arrive in budget.
	ErrTimeout = errors.New("transport: request timed out")
	// ErrNegotiate reports a peer that answered the session hello with
	// something other than a well-formed hello-ack.
	ErrNegotiate = errors.New("transport: session negotiation failed")
	// errStalled marks a connection discarded after consecutive response
	// timeouts with no inbound frames at all — a silently dead peer.
	errStalled = errors.New("transport: connection stalled")
	// errIdle marks a connection reaped for sitting idle past IdleTimeout.
	errIdle = errors.New("transport: connection idle-reaped")
)

// Defaults for zero Options fields.
const (
	DefaultMaxConnsPerPeer = 2
	DefaultMaxStreams      = 64
	DefaultIdleTimeout     = 60 * time.Second
	DefaultDrainTimeout    = 500 * time.Millisecond

	// stalledTimeouts is how many consecutive request timeouts (with no
	// inbound frame in between) a connection survives before it is presumed
	// dead and discarded. Dead-but-connected peers (half-open TCP, black
	// holes) never fail reads, so timeouts are the only signal.
	stalledTimeouts = 3

	// readBufSize sizes the per-connection inbound buffer: one read syscall
	// drains many small frames when streams are busy.
	readBufSize = 64 << 10
)

// Options configures a Pool.
type Options struct {
	// Dialer establishes raw connections (nil means TCP). Fault-injecting
	// dialers compose here: the pool sees exactly what the dialer returns.
	Dialer resilience.Dialer
	// MaxConnsPerPeer caps pooled connections per remote address.
	MaxConnsPerPeer int
	// MaxStreams bounds in-flight streams per connection — the backpressure
	// window. It is also advertised in the hello as what this side will
	// serve inbound; the effective outbound window per connection is
	// min(MaxStreams, peer's advertised window).
	MaxStreams int
	// IdleTimeout reaps connections that carried no frame for this long.
	IdleTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before hard-closing the remaining connections.
	DrainTimeout time.Duration
	// Metrics receives the pool's counters; nil creates a private registry.
	Metrics *metrics.Registry
}

func (o *Options) withDefaults() {
	if o.Dialer == nil {
		o.Dialer = resilience.NetDialer("tcp")
	}
	if o.MaxConnsPerPeer <= 0 {
		o.MaxConnsPerPeer = DefaultMaxConnsPerPeer
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = DefaultMaxStreams
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
}

// poolMetrics are the registry-backed counters, resolved once at New so the
// hot path touches only atomics.
type poolMetrics struct {
	dials         *metrics.Counter // raw session dials issued
	dialsAvoided  *metrics.Counter // frames served over an already-pooled conn
	poolMisses    *metrics.Counter // frames that had to dial a fresh session conn
	shed          *metrics.Counter // frames dropped with ErrSaturated
	framesOut     *metrics.Counter // stream frames written on pooled conns
	framesIn      *metrics.Counter // stream frames read on pooled conns
	orphans       *metrics.Counter // responses whose request had given up
	reaped        *metrics.Counter // conns closed by the idle reaper
	stalled       *metrics.Counter // conns discarded after consecutive timeouts
	negotiateFail *metrics.Counter // dials whose hello exchange failed outright
	inflight      *metrics.Gauge   // in-flight streams across all conns
	conns         *metrics.Gauge   // open pooled connections
}

func (m *poolMetrics) bind(r *metrics.Registry) {
	m.dials = r.Counter("transport_dials_total")
	m.dialsAvoided = r.Counter("transport_dials_avoided_total")
	m.poolMisses = r.Counter("transport_pool_miss_total")
	m.shed = r.Counter("transport_shed_total")
	m.framesOut = r.Counter("transport_frames_out_total")
	m.framesIn = r.Counter("transport_frames_in_total")
	m.orphans = r.Counter("transport_orphan_responses_total")
	m.reaped = r.Counter("transport_idle_reaped_total")
	m.stalled = r.Counter("transport_stalled_conns_total")
	m.negotiateFail = r.Counter("transport_negotiate_fail_total")
	m.inflight = r.Gauge("transport_inflight_streams")
	m.conns = r.Gauge("transport_conns_open")
}

// peerState is the pool's view of one remote address.
type peerState struct {
	conns   []*conn
	dialing int           // in-progress session dials, counted against MaxConnsPerPeer
	wait    chan struct{} // closed when a dial completes, waking queued acquirers
}

// waiter returns the channel acquirers block on while a dial is in flight.
// Caller holds the pool lock.
func (ps *peerState) waiter() chan struct{} {
	if ps.wait == nil {
		ps.wait = make(chan struct{})
	}
	return ps.wait
}

// notify wakes every queued acquirer. Caller holds the pool lock.
func (ps *peerState) notify() {
	if ps.wait != nil {
		close(ps.wait)
		ps.wait = nil
	}
}

// Pool is a per-peer pool of multiplexed session connections.
type Pool struct {
	opts Options
	met  poolMetrics

	mu     sync.Mutex
	peers  map[string]*peerState
	closed bool

	done chan struct{}
	wg   sync.WaitGroup // reaper + per-conn readers
}

// New creates a pool and starts its idle reaper.
func New(opts Options) *Pool {
	opts.withDefaults()
	p := &Pool{
		opts:  opts,
		peers: make(map[string]*peerState),
		done:  make(chan struct{}),
	}
	p.met.bind(opts.Metrics)
	p.wg.Add(1)
	go p.reapLoop()
	return p
}

// Metrics returns the registry the pool counts through.
func (p *Pool) Metrics() *metrics.Registry { return p.opts.Metrics }

// MaxSendPayload is the largest payload Send and RoundTrip accept: the
// stream framing spends 5 bytes of each frame's length budget on the
// message type and stream id. Oversized payloads (a report batch packed
// past the frame limit, say) fail fast with wire.ErrFrameTooLarge before a
// connection is dialed or a window slot consumed.
const MaxSendPayload = wire.MaxFrame - 5

// RoundTrip sends one frame to addr and returns the matched response,
// multiplexed over a pooled session connection. budget bounds the whole
// operation, negotiation included.
func (p *Pool) RoundTrip(addr string, typ wire.MsgType, payload []byte, budget time.Duration) (wire.MsgType, []byte, error) {
	if len(payload) > MaxSendPayload {
		return 0, nil, wire.ErrFrameTooLarge
	}
	deadline := time.Now().Add(budget)
	c, err := p.acquire(addr, deadline)
	if err != nil {
		return 0, nil, err
	}
	rtyp, resp, err := c.roundTrip(typ, payload, deadline)
	p.releaseConn(c)
	return rtyp, resp, err
}

// Send writes one frame to addr with no response expected.
func (p *Pool) Send(addr string, typ wire.MsgType, payload []byte, budget time.Duration) error {
	if len(payload) > MaxSendPayload {
		return wire.ErrFrameTooLarge
	}
	deadline := time.Now().Add(budget)
	c, err := p.acquire(addr, deadline)
	if err != nil {
		return err
	}
	err = c.send(typ, payload, deadline)
	p.releaseConn(c)
	return err
}

// acquire returns a session connection to addr with one in-flight window
// slot reserved. It dials and negotiates a fresh connection when the pool
// has room, queues behind an in-flight dial rather than racing it, and sheds
// with ErrSaturated only when every connection is at its window and the
// per-peer cap is reached with no dial pending.
func (p *Pool) acquire(addr string, deadline time.Time) (*conn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		ps := p.peers[addr]
		if ps == nil {
			ps = &peerState{}
			p.peers[addr] = ps
		}
		for _, c := range ps.conns {
			if c.tryReserve() {
				p.mu.Unlock()
				p.met.dialsAvoided.Inc()
				p.met.inflight.Add(1)
				return c, nil
			}
		}
		if len(ps.conns)+ps.dialing < p.opts.MaxConnsPerPeer {
			break // room for a fresh connection: dial it below
		}
		if ps.dialing == 0 {
			// Cap reached, every window full, nothing pending: shed.
			p.mu.Unlock()
			p.met.shed.Inc()
			return nil, ErrSaturated
		}
		// A dial is in flight; queue for its outcome instead of shedding.
		ch := ps.waiter()
		p.mu.Unlock()
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			t.Stop()
		case <-p.done:
			t.Stop()
			return nil, ErrClosed
		case <-t.C:
			return nil, ErrTimeout
		}
		continue
	}

	ps := p.peers[addr]
	ps.dialing++
	p.mu.Unlock()

	c, err := p.negotiate(addr, deadline)

	p.mu.Lock()
	ps.dialing--
	ps.notify()
	switch {
	case err != nil:
		p.mu.Unlock()
		return nil, err
	case p.closed:
		p.mu.Unlock()
		c.fail(ErrClosed)
		return nil, ErrClosed
	}
	ps.conns = append(ps.conns, c)
	p.mu.Unlock()
	p.met.poolMisses.Inc()
	p.met.conns.Add(1)
	c.reserve()
	p.met.inflight.Add(1)
	p.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// releaseConn returns a window slot.
func (p *Pool) releaseConn(c *conn) {
	c.release()
	p.met.inflight.Add(-1)
}

// negotiate dials addr and runs the hello exchange, returning the ready
// session connection. A peer that closes on the hello is a failed dial like
// any other.
func (p *Pool) negotiate(addr string, deadline time.Time) (*conn, error) {
	budget := time.Until(deadline)
	if budget <= 0 {
		return nil, ErrTimeout
	}
	nc, err := p.opts.Dialer(addr, budget)
	if err != nil {
		return nil, err
	}
	p.met.dials.Inc()
	_ = nc.SetDeadline(deadline)
	hello := wire.Hello{Version: wire.SessionVersion, MaxStreams: uint32(p.opts.MaxStreams)}
	if err := wire.WriteFrame(nc, wire.THello, wire.EncodeHello(hello)); err != nil {
		nc.Close()
		p.met.negotiateFail.Inc()
		return nil, err
	}
	// The buffered reader outlives negotiation: the conn's readLoop keeps
	// using it, so bytes it slurps past the ack are not lost.
	br := bufio.NewReaderSize(nc, readBufSize)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		nc.Close()
		p.met.negotiateFail.Inc()
		return nil, err
	}
	if typ != wire.THelloAck {
		nc.Close()
		p.met.negotiateFail.Inc()
		return nil, ErrNegotiate
	}
	ack, err := wire.DecodeHello(payload)
	if err != nil {
		nc.Close()
		p.met.negotiateFail.Inc()
		return nil, ErrNegotiate
	}
	window := p.opts.MaxStreams
	if int(ack.MaxStreams) < window {
		window = int(ack.MaxStreams)
	}
	if window < 1 {
		window = 1
	}
	_ = nc.SetDeadline(time.Time{})
	return newConn(p, addr, nc, br, window), nil
}

// removeConn drops a dead connection from the pool.
func (p *Pool) removeConn(c *conn) {
	p.mu.Lock()
	ps := p.peers[c.addr]
	if ps != nil {
		for i, pc := range ps.conns {
			if pc == c {
				ps.conns = append(ps.conns[:i], ps.conns[i+1:]...)
				p.met.conns.Add(-1)
				break
			}
		}
	}
	p.mu.Unlock()
}

// reapLoop closes connections that sat idle past IdleTimeout.
func (p *Pool) reapLoop() {
	defer p.wg.Done()
	tick := p.opts.IdleTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		var idle []*conn
		p.mu.Lock()
		for _, ps := range p.peers {
			for _, c := range ps.conns {
				if c.idleFor(p.opts.IdleTimeout) {
					idle = append(idle, c)
				}
			}
		}
		p.mu.Unlock()
		for _, c := range idle {
			c.fail(errIdle)
			p.met.reaped.Inc()
		}
	}
}

// Close drains and shuts the pool down: new operations fail with ErrClosed
// immediately, in-flight requests get up to DrainTimeout to finish, then
// the remaining connections are closed (failing whatever is still pending).
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)

	drainUntil := time.Now().Add(p.opts.DrainTimeout)
	for time.Now().Before(drainUntil) {
		if p.inflightTotal() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.mu.Lock()
	var all []*conn
	for _, ps := range p.peers {
		all = append(all, ps.conns...)
	}
	p.peers = make(map[string]*peerState)
	p.mu.Unlock()
	for _, c := range all {
		c.fail(ErrClosed)
	}
	p.wg.Wait()
	return nil
}

// inflightTotal sums reserved window slots across all connections.
func (p *Pool) inflightTotal() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, ps := range p.peers {
		for _, c := range ps.conns {
			total += c.inflightNow()
		}
	}
	return total
}

// ConnCount returns the number of open pooled connections (tests).
func (p *Pool) ConnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.peers {
		n += len(ps.conns)
	}
	return n
}

// DirectRoundTrip performs a one-shot exchange outside any pool: dial, write
// one plain frame, read one plain frame, close. It is the dial-per-frame
// baseline the pooled path is benchmarked against.
func DirectRoundTrip(dial resilience.Dialer, addr string, typ wire.MsgType, payload []byte, budget time.Duration) (wire.MsgType, []byte, error) {
	nc, err := dial(addr, budget)
	if err != nil {
		return 0, nil, err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(budget))
	if err := wire.WriteFrame(nc, typ, payload); err != nil {
		return 0, nil, err
	}
	return wire.ReadFrame(nc)
}

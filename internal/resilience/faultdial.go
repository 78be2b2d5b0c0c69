package resilience

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Dialer is the node's pluggable transport connector: it dials addr within
// timeout and returns a connected stream. The live node defaults to TCP
// (NetDialer); chaos tests substitute a FaultDialer.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// NetDialer returns the production dialer for a network ("tcp").
func NetDialer(network string) Dialer {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout(network, addr, timeout)
	}
}

// faultMode selects how a FaultDialer sabotages traffic to an address.
type faultMode uint8

const (
	// faultNone passes the traffic through untouched.
	faultNone faultMode = iota
	// faultReset fails reads and writes with a reset error, as if the peer
	// sent RST after accept.
	faultReset
	// faultBlackHole swallows writes and never delivers reads: the peer
	// appears reachable but is gone. Reads block until the read deadline
	// (or Close) and then time out.
	faultBlackHole
)

// ErrInjectedReset is the error a reset connection's reads and writes fail
// with.
var ErrInjectedReset = errors.New("resilience: injected connection reset")

// FaultDialer wraps a base Dialer with per-address fault injection. Share
// one FaultDialer across every node of a test fleet and an address rule
// partitions that node from the whole world at the TCP layer.
type FaultDialer struct {
	base Dialer

	mu    sync.Mutex
	rules map[string]faultMode
}

// NewFaultDialer wraps base (nil means NetDialer("tcp")).
func NewFaultDialer(base Dialer) *FaultDialer {
	if base == nil {
		base = NetDialer("tcp")
	}
	return &FaultDialer{base: base, rules: make(map[string]faultMode)}
}

func (f *FaultDialer) set(addr string, m faultMode) {
	f.mu.Lock()
	f.rules[addr] = m
	f.mu.Unlock()
}

// BlackHole swallows all traffic to addr — the "agent was killed" primitive
// of the chaos tests.
func (f *FaultDialer) BlackHole(addr string) { f.set(addr, faultBlackHole) }

// Reset fails every read and write to addr with ErrInjectedReset, as a peer
// that answers with RST does.
func (f *FaultDialer) Reset(addr string) { f.set(addr, faultReset) }

// Clear removes addr's rule, restoring healthy traffic to it.
func (f *FaultDialer) Clear(addr string) {
	f.mu.Lock()
	delete(f.rules, addr)
	f.mu.Unlock()
}

// ruleFor returns the rule currently installed for addr.
func (f *FaultDialer) ruleFor(addr string) faultMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rules[addr]
}

// Dial implements Dialer with the configured faults. Connections it
// establishes stay tied to the live rule table: installing a rule for addr
// AFTER a dial sabotages that connection's reads and writes too (see
// ruleConn), so a pooled or otherwise persistent connection cannot dodge a
// partition that a dial-per-frame transport would have hit — real partitions
// kill established flows as well as new ones.
func (f *FaultDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	switch f.ruleFor(addr) {
	case faultReset:
		return &resetConn{addr: addr}, nil
	case faultBlackHole:
		return newBlackHoleConn(addr), nil
	default:
		c, err := f.base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &ruleConn{Conn: c, d: f, addr: addr, done: make(chan struct{})}, nil
	}
}

// rulePollInterval is how often a black-holed established connection
// re-checks its rule while blocking a read.
const rulePollInterval = 5 * time.Millisecond

// ruleConn consults the dialer's current rule for its address on every Read
// and Write: a reset fails the operation, a black hole swallows writes
// and stalls reads (until the read deadline, Close, or the rule is lifted —
// a healed partition resumes the flow), anything else passes through.
type ruleConn struct {
	net.Conn
	d    *FaultDialer
	addr string

	mu     sync.Mutex
	rdline time.Time
	once   sync.Once
	done   chan struct{}
}

func (c *ruleConn) Read(b []byte) (int, error) {
	for {
		switch c.d.ruleFor(c.addr) {
		case faultReset:
			return 0, ErrInjectedReset
		case faultBlackHole:
			c.mu.Lock()
			deadline := c.rdline
			c.mu.Unlock()
			wait := rulePollInterval
			if !deadline.IsZero() {
				until := time.Until(deadline)
				if until <= 0 {
					return 0, &timeoutError{op: "read", addr: c.addr}
				}
				if until < wait {
					wait = until
				}
			}
			t := time.NewTimer(wait)
			select {
			case <-c.done:
				t.Stop()
				return 0, net.ErrClosed
			case <-t.C:
			}
		default:
			return c.Conn.Read(b)
		}
	}
}

func (c *ruleConn) Write(b []byte) (int, error) {
	switch c.d.ruleFor(c.addr) {
	case faultReset:
		return 0, ErrInjectedReset
	case faultBlackHole:
		return len(b), nil
	default:
		return c.Conn.Write(b)
	}
}

func (c *ruleConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}

func (c *ruleConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *ruleConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// timeoutError is an injected net.Error with Timeout() == true.
type timeoutError struct{ op, addr string }

func (e *timeoutError) Error() string {
	return "resilience: injected " + e.op + " timeout to " + e.addr
}
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// faultAddr satisfies net.Addr for injected connections.
type faultAddr string

func (a faultAddr) Network() string { return "fault" }
func (a faultAddr) String() string  { return string(a) }

// resetConn is an "established" connection that resets on first use.
type resetConn struct{ addr string }

func (c *resetConn) Read([]byte) (int, error)           { return 0, ErrInjectedReset }
func (c *resetConn) Write(b []byte) (int, error)        { return 0, ErrInjectedReset }
func (c *resetConn) Close() error                       { return nil }
func (c *resetConn) LocalAddr() net.Addr                { return faultAddr("fault:local") }
func (c *resetConn) RemoteAddr() net.Addr               { return faultAddr(c.addr) }
func (c *resetConn) SetDeadline(time.Time) error        { return nil }
func (c *resetConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *resetConn) SetWriteDeadline(t time.Time) error { return nil }

// blackHoleConn swallows writes and never produces reads. A read blocks
// until the configured read deadline (or Close) and then reports a timeout,
// mirroring a peer that vanished without closing the connection.
type blackHoleConn struct {
	addr   string
	mu     sync.Mutex
	rdline time.Time
	done   chan struct{}
	once   sync.Once
}

func newBlackHoleConn(addr string) *blackHoleConn {
	return &blackHoleConn{addr: addr, done: make(chan struct{})}
}

func (c *blackHoleConn) Read([]byte) (int, error) {
	c.mu.Lock()
	deadline := c.rdline
	c.mu.Unlock()
	if deadline.IsZero() {
		<-c.done
		return 0, net.ErrClosed
	}
	wait := time.Until(deadline)
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-c.done:
			return 0, net.ErrClosed
		case <-t.C:
		}
	}
	return 0, &timeoutError{op: "read", addr: c.addr}
}

func (c *blackHoleConn) Write(b []byte) (int, error) {
	select {
	case <-c.done:
		return 0, net.ErrClosed
	default:
		return len(b), nil
	}
}

func (c *blackHoleConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *blackHoleConn) LocalAddr() net.Addr  { return faultAddr("fault:local") }
func (c *blackHoleConn) RemoteAddr() net.Addr { return faultAddr(c.addr) }

func (c *blackHoleConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *blackHoleConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdline = t
	c.mu.Unlock()
	return nil
}

func (c *blackHoleConn) SetWriteDeadline(time.Time) error { return nil }

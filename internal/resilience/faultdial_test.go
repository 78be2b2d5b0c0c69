package resilience

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoListener accepts one connection at a time and echoes a byte.
func echoListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := c.Read(buf); err == nil {
					_, _ = c.Write(buf)
				}
			}(c)
		}
	}()
	return ln
}

func TestFaultDialerPassThrough(t *testing.T) {
	ln := echoListener(t)
	fd := NewFaultDialer(nil)
	conn, err := fd.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err != nil || buf[0] != 42 {
		t.Fatalf("echo failed: %v %v", buf, err)
	}
}

func TestFaultDialerReset(t *testing.T) {
	fd := NewFaultDialer(nil)
	fd.Reset("10.0.0.1:1")
	conn, err := fd.Dial("10.0.0.1:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write: %v", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read: %v", err)
	}
}

func TestFaultDialerBlackHole(t *testing.T) {
	fd := NewFaultDialer(nil)
	fd.BlackHole("10.0.0.1:1")
	conn, err := fd.Dial("10.0.0.1:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Writes are swallowed successfully.
	if n, err := conn.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write swallow: %d %v", n, err)
	}
	// Reads block until the deadline, then time out.
	_ = conn.SetDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout, got %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("read returned before the deadline")
	}
	// Close unblocks a deadline-less read.
	conn2, _ := fd.Dial("10.0.0.1:1", time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := conn2.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	conn2.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not unblock the read")
	}
}

// TestRuleBitesEstablishedConn pins the partition semantics a pooled
// transport depends on: a rule installed AFTER a connection was dialed must
// sabotage that connection's reads and writes too, and clearing the rule
// must heal the flow.
func TestRuleBitesEstablishedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Echo server: copies bytes back.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()

	fd := NewFaultDialer(nil)
	addr := ln.Addr().String()
	conn, err := fd.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	echo := func() error {
		if _, err := conn.Write([]byte("ping")); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		buf := make([]byte, 4)
		_, err := io.ReadFull(conn, buf)
		return err
	}

	// Healthy conn echoes.
	if err := echo(); err != nil {
		t.Fatalf("healthy echo: %v", err)
	}

	// Black-hole the address: the ESTABLISHED conn goes dark — the write is
	// swallowed (reported as success) and the read times out.
	fd.BlackHole(addr)
	start := time.Now()
	err = echo()
	var nerr net.Error
	if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("black-holed echo: err = %v, want timeout", err)
	}
	if time.Since(start) < 250*time.Millisecond {
		t.Fatal("black-holed read returned before its deadline")
	}

	// Heal the partition: the same conn works again.
	fd.Clear(addr)
	if err := echo(); err != nil {
		t.Fatalf("healed echo: %v", err)
	}

	// Flip to reset: reads and writes fail immediately.
	fd.Reset(addr)
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("reset write: %v", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("reset read: %v", err)
	}

	// Close unblocks a black-holed read with no deadline.
	fd.Clear(addr)
	conn2, err := fd.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fd.BlackHole(addr)
	readDone := make(chan error, 1)
	go func() {
		_, err := conn2.Read(make([]byte, 1))
		readDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = conn2.Close()
	select {
	case err := <-readDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("closed black-holed read: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock a black-holed read")
	}
}

package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"hirep/internal/wire"
)

// Responder lets a handler answer the frame it was given. For a session
// connection the response is a stream frame tagged with the request's
// stream id; for a one-shot connection it is a plain frame on the same
// socket. Handlers that don't respond simply never call Respond.
type Responder interface {
	Respond(typ wire.MsgType, payload []byte) error
}

// Handler processes one inbound frame. It runs on its own goroutine for
// session connections and may call r.Respond at most once.
type Handler func(typ wire.MsgType, payload []byte, r Responder)

// ServerConfig tunes ServeConn. The zero value gets sane defaults.
type ServerConfig struct {
	// MaxStreams is the per-connection handler concurrency cap advertised in
	// the hello-ack; the read loop blocks (natural TCP backpressure) once
	// this many handlers are running.
	MaxStreams int
	// FirstFrameTimeout bounds the wait for the opening frame, which decides
	// one-shot vs session.
	FirstFrameTimeout time.Duration
	// IdleTimeout ends a session that carried no frame for this long.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write.
	WriteTimeout time.Duration

	// OnFrame, OnReadError, and OnDecodeError let the caller count inbound
	// traffic per message type and distinguish transport-level read failures
	// from malformed frames. Any of them may be nil.
	OnFrame       func(typ wire.MsgType)
	OnReadError   func()
	OnDecodeError func()
}

func (c *ServerConfig) withDefaults() {
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	if c.FirstFrameTimeout <= 0 {
		c.FirstFrameTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
}

// decodeFailure reports whether a read error means "the bytes were wrong"
// (countable as a decode error) rather than "the transport failed".
func decodeFailure(err error) bool {
	return errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrShortField)
}

// ServeConn owns one accepted connection for its whole life. It sniffs the
// first frame: a THello upgrades the connection to a multiplexed session;
// anything else is served as a one-shot exchange (DirectRoundTrip's
// counterpart): handle that single frame, answer on the same socket, close.
// It returns when the connection is done.
func ServeConn(nc net.Conn, cfg ServerConfig, h Handler) {
	cfg.withDefaults()
	defer nc.Close()

	// One buffered reader for the connection's whole life: a single read
	// syscall drains several frames when the peer pipelines streams.
	br := bufio.NewReaderSize(nc, readBufSize)
	_ = nc.SetReadDeadline(time.Now().Add(cfg.FirstFrameTimeout))
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		if decodeFailure(err) {
			if cfg.OnDecodeError != nil {
				cfg.OnDecodeError()
			}
		} else if cfg.OnReadError != nil {
			cfg.OnReadError()
		}
		return
	}

	if typ != wire.THello {
		// One-shot peer: handle this single frame and close.
		if cfg.OnFrame != nil {
			cfg.OnFrame(typ)
		}
		_ = nc.SetDeadline(time.Now().Add(cfg.WriteTimeout))
		h(typ, payload, oneShotResponder{nc})
		return
	}

	hello, err := wire.DecodeHello(payload)
	if err != nil {
		if cfg.OnDecodeError != nil {
			cfg.OnDecodeError()
		}
		return
	}
	_ = hello // version already validated by DecodeHello

	_ = nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
	ack := wire.Hello{Version: wire.SessionVersion, MaxStreams: uint32(cfg.MaxStreams)}
	if err := wire.WriteFrame(nc, wire.THelloAck, wire.EncodeHello(ack)); err != nil {
		return
	}
	_ = nc.SetWriteDeadline(time.Time{})

	serveSession(nc, br, cfg, h)
}

// serveSession is the post-handshake read loop: one goroutine per inbound
// frame, bounded by a MaxStreams semaphore that blocks the loop (and so the
// TCP window) when the peer outruns the handlers.
func serveSession(nc net.Conn, br *bufio.Reader, cfg ServerConfig, h Handler) {
	w := newGroupWriter(nc)
	sem := make(chan struct{}, cfg.MaxStreams)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		_ = nc.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		typ, stream, payload, err := wire.ReadStreamFrame(br)
		if err != nil {
			// EOF at a frame boundary is the peer closing cleanly; an idle
			// timeout is the server-side reap, not a fault.
			var nerr net.Error
			idle := errors.As(err, &nerr) && nerr.Timeout()
			if !errors.Is(err, io.EOF) && !idle {
				if decodeFailure(err) {
					if cfg.OnDecodeError != nil {
						cfg.OnDecodeError()
					}
				} else if cfg.OnReadError != nil {
					cfg.OnReadError()
				}
			}
			return
		}
		if cfg.OnFrame != nil {
			cfg.OnFrame(typ)
		}
		sem <- struct{}{} // backpressure: cap concurrent handlers
		wg.Add(1)
		go func(typ wire.MsgType, stream uint32, payload []byte) {
			defer func() { <-sem; wg.Done() }()
			h(typ, payload, &streamResponder{w: w, stream: stream})
		}(typ, stream, payload)
	}
}

// oneShotResponder answers on the one-shot socket with a plain frame.
type oneShotResponder struct{ nc net.Conn }

func (r oneShotResponder) Respond(typ wire.MsgType, payload []byte) error {
	return wire.WriteFrame(r.nc, typ, payload)
}

// streamResponder answers a session frame with the request's stream id;
// concurrent handlers' responses share the session's group-commit writer.
type streamResponder struct {
	w      *groupWriter
	stream uint32
}

func (r *streamResponder) Respond(typ wire.MsgType, payload []byte) error {
	return r.w.write(typ, r.stream, payload)
}

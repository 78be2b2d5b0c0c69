package node

import (
	"net"
	"time"

	"hirep/internal/transport"
)

// defaultMaxSessions caps concurrently served inbound connections. A
// session conn occupies its slot for the whole connection lifetime (not one
// frame), so the default is sized for a node's full peer set — every peer
// at its pool cap — with ample headroom, while still bounding a flood.
const defaultMaxSessions = 256

// firstFrameTimeout bounds how long an accepted connection may sit silent
// before its first frame; it is deliberately shorter than the session idle
// timeout so a connect-and-say-nothing flood releases its session slots
// quickly.
const firstFrameTimeout = 5 * time.Second

// acceptLoop serves inbound connections. Each accepted conn is handed to
// transport.ServeConn, which sniffs session-vs-one-shot and runs the
// appropriate loop; the sessionSem gate bounds how many conns are served at
// once so a conn flood cannot exhaust goroutines — beyond the cap,
// connections are closed on arrival and counted as shed.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	cfg := transport.ServerConfig{
		MaxStreams:        n.opts.MaxStreams,
		FirstFrameTimeout: firstFrameTimeout,
		IdleTimeout:       n.opts.IdleTimeout,
		WriteTimeout:      n.timeout(), // SetTimeout may run concurrently
		OnFrame:           n.countFrame,
		OnReadError:       n.cnt.framesReadErr.Inc,
		OnDecodeError:     n.cnt.framesDecodeErr.Inc,
	}
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case n.sessionSem <- struct{}{}:
		default:
			// At the session cap: shed the connection instead of queuing a
			// goroutine behind it. The peer sees a close-before-hello-ack,
			// which its pool treats as a transient failure.
			conn.Close()
			n.cnt.sessionsShed.Inc()
			continue
		}
		n.trackSession(conn)
		n.wg.Add(1)
		go func() {
			defer func() {
				n.untrackSession(conn)
				<-n.sessionSem
				n.wg.Done()
			}()
			transport.ServeConn(conn, cfg, n.handle)
		}()
	}
}

// trackSession registers a live inbound connection so Close can tear it
// down; a session would otherwise outlive the listener by up to its idle
// timeout. A node already closed kills the conn immediately.
func (n *Node) trackSession(conn net.Conn) {
	n.sessMu.Lock()
	if n.sessions == nil {
		n.sessions = make(map[net.Conn]struct{})
	}
	n.sessions[conn] = struct{}{}
	n.sessMu.Unlock()
	if n.isClosed() {
		conn.Close()
	}
}

func (n *Node) untrackSession(conn net.Conn) {
	n.sessMu.Lock()
	delete(n.sessions, conn)
	n.sessMu.Unlock()
}

// closeSessions force-closes every live inbound connection (Close path);
// their ServeConn loops see the close as a read error and return.
func (n *Node) closeSessions() {
	n.sessMu.Lock()
	for conn := range n.sessions {
		conn.Close()
	}
	n.sessMu.Unlock()
}

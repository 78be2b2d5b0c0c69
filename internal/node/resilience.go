package node

import (
	"slices"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
)

// This file wires the node onto internal/resilience: deferral of
// undeliverable transaction reports into the in-memory outbox, the background
// flusher that drains it through the acknowledged delivery loop once the
// target agent's circuit breaker closes again, and backup-agent failover plus
// probing (§3.4.3, §3.6).

// Probe and flush defaults. Probes must be much cheaper than requests —
// checking a dead peer is the common case for them — and the flusher's base
// cadence is fast so a recovered agent drains quickly, with backoff keeping
// a still-dead one cheap.
const (
	defaultProbeTimeout  = 750 * time.Millisecond
	defaultFlushInterval = 250 * time.Millisecond
	maxFlushInterval     = 5 * time.Second
)

// AttachBook binds book to the node's resilience machinery: the node's
// breaker config is applied to the book's per-agent breakers, and the outbox
// flusher consults those breakers so deferred reports are only re-attempted
// against agents currently believed healthy.
func (n *Node) AttachBook(book *AgentBook) {
	book.SetBreakerConfig(n.opts.Breaker)
	n.bookMu.Lock()
	n.book = book
	n.bookMu.Unlock()
	n.kickFlush()
}

func (n *Node) attachedBook() *AgentBook {
	n.bookMu.Lock()
	defer n.bookMu.Unlock()
	return n.book
}

// noteSuccess feeds one successful end-to-end exchange with an agent into its
// breaker. A breaker closing again is a recovery: the flusher is kicked so
// deferred reports for that agent drain immediately.
func (n *Node) noteSuccess(book *AgentBook, id pkc.NodeID) {
	if book == nil {
		return
	}
	if book.RecordSuccess(id) {
		n.cnt.breakerClose.Inc()
		n.kickFlush()
	}
}

// noteFailure feeds one failed exchange into the agent's breaker. When this
// failure trips the breaker open the agent is demoted (§3.4.3 offline
// handling) and the first healthy backup is promoted in its place, keeping
// the book at strength (§3.6's replacement liveness argument).
func (n *Node) noteFailure(book *AgentBook, id pkc.NodeID) {
	if book == nil {
		return
	}
	if !book.RecordFailure(id) {
		return
	}
	n.cnt.breakerOpen.Inc()
	if !book.Demote(id) {
		return // already out of the active book (e.g. a failed backup probe)
	}
	n.promoteBackup(book)
}

// promoteBackup fills a vacated active slot from the backup cache and counts
// the failover: the most recently demoted backup whose breaker is closed
// wins. Candidates are tried in that order until one restores — a single
// candidate lost to a concurrent probe must not abandon the failover.
func (n *Node) promoteBackup(book *AgentBook) (pkc.NodeID, bool) {
	var cands []pkc.NodeID
	for _, id := range book.Backups() {
		if book.BreakerState(id) == resilience.BreakerClosed {
			cands = append(cands, id)
		}
	}
	id, ok := restoreFirst(book, cands)
	if ok {
		n.cnt.failovers.Inc()
	}
	return id, ok
}

// restoreFirst promotes the first candidate the book still holds as a
// backup. Restore can fail per-candidate (a concurrent prober already
// restored it, or it was dropped from the cache); later candidates still
// get their chance.
func restoreFirst(book *AgentBook, cands []pkc.NodeID) (pkc.NodeID, bool) {
	for _, id := range cands {
		if book.Restore(id) {
			return id, true
		}
	}
	return pkc.NodeID{}, false
}

// probeBackups probes every backup agent with one short trust request (§3.4.3:
// "the peer first probes all back up agents") and restores responsive ones to
// the book. Each probe respects the backup's breaker — an open breaker inside
// its cooldown is skipped; one past cooldown gets the half-open slot. The
// restored agents' IDs are returned.
func (n *Node) probeBackups(book *AgentBook, replyOnion *onion.Onion) []pkc.NodeID {
	var restored []pkc.NodeID
	for _, id := range book.Backups() {
		info, ok := book.BackupInfo(id)
		if !ok {
			continue
		}
		allow, probe := book.Allow(id)
		if !allow {
			continue
		}
		if probe {
			n.cnt.breakerHalf.Inc()
		}
		// The subject is immaterial — the round trip itself is the probe.
		if _, _, err := n.requestTrust(info, id, replyOnion, 1, n.opts.ProbeTimeout); err != nil {
			n.noteFailure(book, id)
			continue
		}
		n.noteSuccess(book, id)
		if book.Restore(id) {
			restored = append(restored, id)
		}
	}
	return restored
}

// reportOrDefer delivers one transaction report, or queues it in the outbox.
// The unacknowledged TReport is a fast path, taken only to an agent that has
// acked a stored batch from this identity (setOneWay), so the agent is known
// to hold the identity's key: first contact goes through the flusher's acked
// loop, whose batch registers the key (§3.5.2) and whose ack names each
// report's fate. The report is also queued when the agent's breaker is not
// closed (sending through an onion cannot observe a dead terminal agent, so
// breaker state is the only trustworthy health signal), and after a real
// first-hop send failure.
func (n *Node) reportOrDefer(book *AgentBook, a AgentInfo, subject pkc.NodeID, positive bool) error {
	id := a.ID()
	if book != nil && book.BreakerState(id) != resilience.BreakerClosed {
		n.deferReport(a, subject, positive)
		return nil
	}
	if !n.oneWayTo(id) {
		n.deferReport(a, subject, positive)
		n.kickFlush()
		return nil
	}
	if err := n.reportTransaction(a, subject, positive); err != nil {
		n.noteFailure(book, id)
		n.deferReport(a, subject, positive)
		return err
	}
	return nil
}

// setOneWay records that agent id acked a stored batch signed by self.
func (n *Node) setOneWay(id pkc.NodeID, self *pkc.Identity) {
	n.oneWayMu.Lock()
	defer n.oneWayMu.Unlock()
	if n.oneWay == nil {
		n.oneWay = make(map[pkc.NodeID]*pkc.Identity)
	}
	n.oneWay[id] = self
}

// oneWayTo reports whether agent id has acked a stored batch from the node's
// current identity. Keying the set by identity keeps an ack that raced a
// rotation from opening the fast path for the successor.
func (n *Node) oneWayTo(id pkc.NodeID) bool {
	n.oneWayMu.Lock()
	defer n.oneWayMu.Unlock()
	return n.oneWay[id] == n.identity()
}

// outboxCap bounds the reports the outbox holds; at the cap the oldest is
// evicted and counted lost.
const outboxCap = 1024

// deferredReport is one outbox entry. It holds no signature: deliver signs
// the report under the identity current when it is sent, with a fresh nonce,
// so nothing stale is replayed.
type deferredReport struct {
	agent    AgentInfo
	subject  pkc.NodeID
	positive bool
}

// deferReport queues a report for the outbox flusher. A report deferred
// after Close can never be sent and is counted lost at once.
func (n *Node) deferReport(a AgentInfo, subject pkc.NodeID, positive bool) {
	n.outboxMu.Lock()
	defer n.outboxMu.Unlock()
	n.cnt.reportsDeferred.Inc()
	if n.isClosed() {
		n.cnt.reportsLost.Inc()
		return
	}
	if len(n.outbox) >= outboxCap {
		n.outbox[0] = nil
		n.outbox = n.outbox[1:]
		n.cnt.reportsLost.Inc()
	}
	n.outbox = append(n.outbox, &deferredReport{a, subject, positive})
	n.cnt.outboxDepth.Set(int64(len(n.outbox)))
}

// retire removes an entry deliver settled; an entry already evicted is gone.
func (n *Node) retire(e *deferredReport) {
	n.outboxMu.Lock()
	defer n.outboxMu.Unlock()
	if i := slices.Index(n.outbox, e); i >= 0 {
		n.outbox = slices.Delete(n.outbox, i, i+1)
	}
}

// kickFlush nudges the flusher without blocking (it coalesces).
func (n *Node) kickFlush() {
	select {
	case n.flushCh <- struct{}{}:
	default:
	}
}

// flushLoop drains the outbox in the background: on a base cadence, on
// kicks (a breaker closing, a fresh deferral), with exponential backoff while
// deliveries keep failing so a dead agent stays cheap.
func (n *Node) flushLoop() {
	defer n.outboxWG.Done()
	base := n.opts.OutboxFlushInterval
	backoff := base
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-n.closeCh:
			return
		case <-n.flushCh:
		case <-timer.C:
		}
		failed := n.flushOutbox()
		n.updateStoreHealth()
		if failed > 0 {
			backoff *= 2
			if backoff > maxFlushInterval {
				backoff = maxFlushInterval
			}
		} else {
			backoff = base
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(backoff)
	}
}

// flushOutbox drains one pass of the outbox through the acknowledged
// delivery loop. It groups the entries per agent in queue order and retires
// each on its own acked status: stored as sent, a protocol reject as
// rejected. Anything else (saturated agent, store failure, lost ack, open
// breaker) stays queued and counts as blocked, so the loop backs off. The
// acks come back through the node's reply route; until the node has one, the
// outbox waits.
func (n *Node) flushOutbox() (blocked int) {
	ro := n.replyRoute.Load()
	if ro == nil {
		return 0
	}
	type group struct {
		info    AgentInfo
		entries []*deferredReport
		reports []BatchReport
	}
	groups := make(map[pkc.NodeID]*group)
	var order []pkc.NodeID
	n.outboxMu.Lock()
	pending := slices.Clone(n.outbox)
	n.outboxMu.Unlock()
	for _, e := range pending {
		id := e.agent.ID()
		g := groups[id]
		if g == nil {
			g = &group{info: e.agent}
			groups[id] = g
			order = append(order, id)
		}
		g.entries = append(g.entries, e)
		g.reports = append(g.reports, BatchReport{Subject: e.subject, Positive: e.positive})
	}
	book := n.attachedBook()
	for _, id := range order {
		g := groups[id]
		if n.isClosed() {
			blocked += len(g.reports)
			continue
		}
		// A send error reaches settle too, as each report's blocked count.
		_ = n.deliver(book, g.info, g.reports, ro, func(i int, st ReportStatus, err error) {
			if err != nil || st.Retryable() {
				blocked++
				return
			}
			n.retire(g.entries[i])
			if st == StatusStored {
				n.cnt.outboxSent.Inc()
			}
		})
	}
	n.cnt.outboxDepth.Set(int64(n.OutboxDepth()))
	return blocked
}

// OutboxDepth returns the number of reports currently queued for redelivery.
func (n *Node) OutboxDepth() int {
	n.outboxMu.Lock()
	defer n.outboxMu.Unlock()
	return len(n.outbox)
}
